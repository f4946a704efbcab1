// Command nucabench is the repository benchmark: it runs one workload (or
// all of them, each in its own child process), prints every metric by
// name with its unit, checks every simulated output against pinned
// SHA-256 digests, and prints the result as one JSON object on the last
// line of standard output.
//
//	nucabench -workload table1 -seed 1 -seconds 20 -trace 0   one workload
//	nucabench -seed 1 -out set.jsonl                          every workload
//	nucabench -compare a.jsonl b.jsonl                        two sets of runs
//	nucabench -pin                                            regenerate expected.json
//
// bench/run.sh builds the command from source and runs it from the
// repository root. See bench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
)

// workloads in suite order.
var workloads = []string{"table1", "warmup", "sweep", "serve"}

// seedsPerRun is how many distinct seeds a run cycles through: op i uses
// seed + i%seedsPerRun, so repeated seeds cross-check each other.
const seedsPerRun = 8

// setupReps is how many fresh processes time the set-up; setup_s is
// their median.
const setupReps = 3

// bench is one workload.
type bench interface {
	// setup builds the inputs and runs one untimed op, verified.
	setup(e *env) error
	// measure runs the untraced window and fills the end-to-end metrics
	// other than setup_s and peak_rss_mb.
	measure(e *env, m metrics) (tally, error)
	// trace runs the traced procedure and fills the per-layer metrics.
	trace(e *env, m metrics) (tally, error)
	close()
}

func newBench(name string, smoke bool) (bench, error) {
	switch name {
	case "table1":
		return newTable1(smoke), nil
	case "warmup":
		return newWarmup(smoke), nil
	case "sweep":
		return newSweep(smoke), nil
	case "serve":
		return newServe(smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// env is one run's context: its inputs' seed and size, the pinned
// digests, and where to write temporary files and artifacts.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	smoke    bool
	outDir   string
	pinned   map[string][]string // expected digests by op key; nil when unpinned
	seen     map[string][]string // first digests seen by op key, for repeats
	spans    *spanLog
	host     *hostSpeed // calibration kernel timings; nil when traced
}

// verify checks an op's output digests against the pinned ones or, at an
// unpinned seed, against the first op that used the same key.
func (e *env) verify(key string, got []string) error {
	want, ok := e.pinned[key]
	if !ok && e.pinned == nil {
		want, ok = e.seen[key]
		if !ok {
			e.seen[key] = got
			return nil
		}
	}
	if !ok {
		return fmt.Errorf("%s: no pinned digest for %s", e.workload, key)
	}
	if !slices.Equal(want, got) {
		return fmt.Errorf("%s: output digest mismatch for %s", e.workload, key)
	}
	return nil
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// digests hashes each result as the service stores it (serve.EncodeResult).
func digests(rs []sim.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		b, err := serve.EncodeResult(r)
		if err != nil {
			out[i] = "encode error: " + err.Error()
			continue
		}
		out[i] = digest(b)
	}
	return out
}

// failedLatencyMs is the latency a failed op counts with: the whole
// window, so it misses every latency limit.
func failedLatencyMs(e *env) float64 { return 1e3 * e.seconds }

// minTracedOps makes every traced phase cover each seed once.
func minTracedOps(e *env) int {
	if e.smoke {
		return 2
	}
	return seedsPerRun
}

// tally counts ops attempted and failed.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// loop runs ops back to back until seconds have passed and at least
// minOps have run; op i gets seed base + i%seedsPerRun. A panic inside an
// op counts as that op failing.
func loop(base uint64, seconds float64, minOps int, op func(seed uint64) error) tally {
	var t tally
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		t.attempted++
		if err := safely(func() error { return op(base + uint64(i%seedsPerRun)) }); err != nil {
			t.failed++
			fmt.Fprintln(os.Stderr, "op failed:", err)
		}
	}
	return t
}

func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// Result is one workload run: the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: "+strings.Join(workloads, ", ")+" (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "input seed; digests are pinned at seed 1")
		seconds  = flag.Float64("seconds", 20, "measurement window per workload, in seconds")
		traceRun = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		out      = flag.String("out", "", "append each workload's result record (JSON lines) to this file")
		benchDir = flag.String("benchdir", "bench", "the benchmark's directory (expected.json, out/)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		pin      = flag.Bool("pin", false, "recompute every pinned digest at seed 1 and rewrite expected.json")
		smoke    = flag.Bool("smoke", false, "tiny op sizes (outputs are unpinned)")
		setup    = flag.Bool("setup-only", false, "set the workload up, print \"ready\", and exit (times setup_s)")
	)
	flag.Parse()
	// The benchmark's load comes from one process using at most two
	// threads' worth of CPU, whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		err = compareFiles(os.Stdout, filepath.Join(*benchDir, "..", "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	case *pin:
		err = pinAll(*benchDir)
	case *name == "":
		err = runSuite(*benchDir, *seed, *seconds, *traceRun == 1, *smoke, *out)
	case *setup:
		err = setupOnly(*benchDir, *name, *seed, *smoke)
	default:
		var res Result
		res, err = runWorkload(*benchDir, *name, *seed, *seconds, *traceRun == 1, *smoke)
		if err == nil {
			err = printResult(os.Stdout, *name, res, *traceRun == 1)
		}
		if err == nil && !res.Correct {
			err = errors.New("outputs failed verification")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucabench:", err)
		os.Exit(1)
	}
}

func newEnv(benchDir, name string, seed uint64, seconds float64, smoke bool) (*env, error) {
	e := &env{workload: name, seed: seed, seconds: seconds, smoke: smoke,
		outDir: filepath.Join(benchDir, "out"), seen: make(map[string][]string)}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if seed == pinnedSeed && !smoke {
		exp, err := readExpected(benchDir)
		if err != nil {
			return nil, err
		}
		e.pinned = exp.Workloads[name]
	}
	return e, nil
}

func setupOnly(benchDir, name string, seed uint64, smoke bool) error {
	e, err := newEnv(benchDir, name, seed, 0, smoke)
	if err != nil {
		return err
	}
	b, err := newBench(name, smoke)
	if err != nil {
		return err
	}
	defer b.close()
	if err := b.setup(e); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// timeSetups starts setupReps fresh processes that each set the workload
// up, and returns the median time from process start to "ready", at
// reference host speed (the calibration kernel runs after each process).
func timeSetups(benchDir, name string, seed uint64, smoke bool) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	var host hostSpeed
	for k := 0; k < setupReps; k++ {
		args := []string{"-setup-only", "-workload", name, "-seed", seedKey(seed), "-benchdir", benchDir}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		if strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up process printed %q", line)
		}
		ds = append(ds, d.Seconds())
		for i := 0; i < 3; i++ {
			host.sample()
		}
	}
	return median(ds) / host.factor(), nil
}

// runWorkload runs one workload in this process: untraced, it reports the
// end-to-end metrics; traced, the per-layer ones.
func runWorkload(benchDir, name string, seed uint64, seconds float64, traced, smoke bool) (Result, error) {
	e, err := newEnv(benchDir, name, seed, seconds, smoke)
	if err != nil {
		return Result{}, err
	}
	b, err := newBench(name, smoke)
	if err != nil {
		return Result{}, err
	}
	fmt.Printf("pinned=%v\n", e.pinned != nil)
	m := metrics{}
	if !traced {
		if m["setup_s"], err = timeSetups(benchDir, name, seed, smoke); err != nil {
			return Result{}, err
		}
	}
	defer b.close()
	if err := b.setup(e); err != nil {
		return Result{}, fmt.Errorf("set-up: %w", err)
	}
	var tl tally
	defs := endToEnd
	if traced {
		defs = perLayer
		e.spans = newSpanLog()
		tl, err = b.trace(e, m)
		if err != nil {
			return Result{}, err
		}
		zeroFill(m, perLayer)
		path := filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := e.spans.write(path); err != nil {
			return Result{}, err
		}
		fmt.Println("perfetto trace:", path)
	} else {
		e.host = &hostSpeed{}
		if tl, err = b.measure(e, m); err != nil {
			return Result{}, err
		}
		m["peak_rss_mb"] = peakRSSMB()
		f := e.host.factor()
		fmt.Printf("host speed factor %.3f; raw op p50 %.4g ms, p80 %.4g ms\n", f, m["op_ms_p50"], m["op_ms_p80"])
		m["op_ms_p50"] /= f
		m["op_ms_p80"] /= f
		m["sim_minstr_per_s"] *= f
	}
	res := Result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed}
	res.Metrics, err = render(m, defs)
	return res, err
}

// printResult prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(w io.Writer, name string, res Result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s: %d ops, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// record is one line of a result set file.
type record struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Pinned   bool      `json:"pinned"`
	Host     Host      `json:"host"`
	Time     time.Time `json:"time"`
	Result   Result    `json:"result"`
}

// runSuite runs every workload, each in a child process, and appends
// their results to out.
func runSuite(benchDir string, seed uint64, seconds float64, traced, smoke bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	host := hostInfo()
	fmt.Printf("host: %s, nproc %d, %s, GOMAXPROCS %d\n", host.CPU, host.NumCPU, host.GoVersion, host.GOMAXPROCS)
	failed := 0
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, name := range workloads {
		args := []string{"-workload", name, "-seed", seedKey(seed),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-benchdir", benchDir}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		var stdout strings.Builder
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		start := time.Now()
		runErr := cmd.Run()
		fmt.Printf("%s took %.1f s\n", name, time.Since(start).Seconds())
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: no result (%v): %w", name, runErr, err)
		}
		if !res.Correct || runErr != nil {
			failed++
		}
		if out != "" {
			rec := record{Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
				Pinned: seed == pinnedSeed && !smoke, Host: host, Time: time.Now().UTC(), Result: res}
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
	}
	fmt.Printf("pinned=%v\n", seed == pinnedSeed && !smoke)
	if failed > 0 {
		return fmt.Errorf("%d workloads failed verification", failed)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
