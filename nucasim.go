package nucasim

import (
	"nucasim/internal/sim"
	"nucasim/internal/workload"
)

// This file is the library facade: the stable, minimal surface a
// downstream user needs to run simulations without reaching into
// internal/ packages. The aliases are real type identities, so values
// returned here interoperate with the deeper APIs documented in
// DESIGN.md.

// Config parameterizes one simulation run; see sim.Config for fields.
type Config = sim.Config

// Result is the outcome of one run; see sim.Result for fields.
type Result = sim.Result

// Scheme selects a last-level cache organization.
type Scheme = sim.Scheme

// App is a synthetic application model.
type App = workload.AppParams

// The last-level cache organizations of the paper's evaluation.
const (
	Private   = sim.SchemePrivate
	Shared    = sim.SchemeShared
	Private4x = sim.SchemePrivate4x
	Coop      = sim.SchemeCoop
	Adaptive  = sim.SchemeAdaptive
)

// Run executes a full warmup+measurement simulation of a four-app mix.
func Run(cfg Config, mix []App) Result { return sim.Run(cfg, mix) }

// Schemes lists every organization, in the order tables present them.
func Schemes() []Scheme { return sim.Schemes() }

// Apps returns the 24 synthetic SPEC2000 application models.
func Apps() []App { return workload.Suite() }

// AppByName returns one application model by name: a SPEC suite app,
// a synthetic parallel app (oceanp, fftp, lup) or "idle".
func AppByName(name string) (App, bool) { return workload.ByName(name) }

// IntensiveApps returns the last-level-cache-intensive subset (Figure 5).
func IntensiveApps() []App { return workload.Intensive() }
