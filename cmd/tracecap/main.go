// Command tracecap captures an application's memory-reference stream to a
// compact binary trace file, or replays an existing trace through a
// configurable LRU cache and reports hit/miss statistics — the standard
// workflow for characterizing a reference stream outside the full
// simulator (Figure 3-style studies on saved traces).
//
//	tracecap -app gzip -n 2000000 -o gzip.trc       # capture
//	tracecap -replay gzip.trc -kb 1024 -ways 4      # replay
package main

import (
	"flag"
	"fmt"
	"os"

	"nucasim/internal/atomicio"
	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/trace"
	"nucasim/internal/workload"
)

func main() {
	app := flag.String("app", "gzip", "application to capture")
	n := flag.Uint64("n", 1_000_000, "instructions to run while capturing")
	out := flag.String("o", "", "output trace file (capture mode)")
	replay := flag.String("replay", "", "trace file to replay (replay mode)")
	kb := flag.Int("kb", 1024, "replay cache size in KB")
	ways := flag.Int("ways", 4, "replay cache associativity")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	switch {
	case *replay != "":
		if err := doReplay(*replay, *kb, *ways); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *out != "":
		if err := doCapture(*app, *n, *out, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "specify -o FILE to capture or -replay FILE to replay")
		os.Exit(2)
	}
}

func doCapture(app string, n uint64, out string, seed uint64) error {
	p, ok := workload.ByName(app)
	if !ok {
		return fmt.Errorf("unknown application %q", app)
	}
	f, err := atomicio.Create(out)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		f.Abort()
		return err
	}
	g := workload.NewGenerator(p, 0, rng.New(seed))
	refs, err := trace.Capture(g, n, w)
	if err != nil {
		f.Abort()
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("captured %d references from %d instructions of %s into %s (%.2f bytes/ref)\n",
		refs, n, app, out, float64(info.Size())/float64(refs))
	return nil
}

func doReplay(path string, kb, ways int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	c := cache.New("replay", memaddr.NewGeometry(kb<<10, ways))
	writes := uint64(0)
	n, err := trace.Replay(r, func(rec trace.Record) {
		if rec.Write {
			writes++
		}
		if hit, _ := c.Access(rec.Addr, rec.Write); !hit {
			c.Install(rec.Addr, rec.Write, 0)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d references (%d writes) through %d KB %d-way LRU\n", n, writes, kb, ways)
	fmt.Printf("hits %d, misses %d (%.2f%% miss), evictions %d, writebacks %d\n",
		c.Stats.Hits, c.Stats.Misses,
		100*float64(c.Stats.Misses)/float64(c.Stats.Accesses),
		c.Stats.Evictions, c.Stats.Writebacks)
	return nil
}
