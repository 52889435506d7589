// Command trigenebench runs one trigene benchmark workload end to end
// and prints its metrics. Each workload is a closed loop of one client
// in one process: it generates its input files from the seed (once per
// seed, with a reference answer computed by a different path), then
// repeats the whole user-visible operation — input file on disk to a
// checked answer — until the measuring time is up, and reports medians.
//
//	trigenebench --workload scan3 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// tracing and no metrics registry. With --trace 1 it alternates
// untraced and traced operations; the traced ones record spans around
// every call into a layer and read the layers' exported counters as
// deltas, and it prints the per-layer metrics. Spans are kept in
// memory and written to .bench_build/traces when the run ends; each
// run's full record, with the host fingerprint, goes to
// .bench_build/results. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"trigene/internal/datafile"
)

// metric is one reported figure's name and unit.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"gelem_per_s", "Gelem/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced run's figures. A layer a workload does not
// run reports 0 work and 0 time, except survivor recall, which is 1
// when nothing is screened away.
var perLayer = []metric{
	{"dataset.decode_s", "s"}, {"dataset.decode_mb_per_s", "MB/s"},
	{"store.encode_s", "s"}, {"store.open_s", "s"}, {"store.builds", "count"},
	{"engine.search_s", "s"}, {"engine.gelem_per_s", "Gelem/s"}, {"engine.combinations", "count"},
	{"engine.tiles.V4F", "count"}, {"engine.tiles.V2", "count"},
	{"sched.tiles_claimed", "count"}, {"sched.grain", "count"},
	{"screen.stage1_s", "s"}, {"screen.stage2_s", "s"}, {"screen.pairs", "count"}, {"screen.survivor_recall", "ratio"},
	{"permtest.s", "s"}, {"permtest.perms_per_s", "1/s"},
	{"cluster.submit_s", "s"}, {"cluster.dataset_fetch_s", "s"},
	{"cluster.lease_ms.p50", "ms"}, {"cluster.lease_ms.p90", "ms"},
	{"cluster.done_ms.p50", "ms"}, {"cluster.done_ms.p90", "ms"},
	{"cluster.tile_ms.p50", "ms"}, {"cluster.tile_ms.p90", "ms"},
	{"cluster.lease_empty_ratio", "ratio"}, {"cluster.result_lag_s", "s"},
	{"cluster.reissued", "count"}, {"cluster.wire_bytes", "bytes"},
	{"wal.fsyncs", "count"}, {"wal.fsync_s", "s"}, {"wal.append_bytes", "bytes"},
	{"trace.unattributed_s", "s"}, {"trace.overhead", "ratio"},
}

func newLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	l["screen.survivor_recall"] = 1
	return l
}

// bench is one run's fixed state.
type bench struct {
	w          workload
	input      string
	inputBytes int64
	ref        *reference
	tmp        string
	// recall is the share of planted SNPs the screen keeps (traced
	// screen_perm runs only).
	recall float64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trigenebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: scan3, screen_perm, order4 or cluster")
	seed := flag.Int64("seed", 1, "workload seed: picks the generated inputs")
	seconds := flag.Int("seconds", 15, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from traced operations")
	prep := flag.Bool("prepare", false, "only generate the inputs and reference answer for --workload/--seed")
	out := flag.String("dir", ".bench_build", "directory for inputs, traces and results")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ctx := context.Background()
	dir := filepath.Join(*out, "inputs", fmt.Sprintf("%s-seed%d", w.name, *seed))
	if *prep {
		return prepare(ctx, w, *seed, dir)
	}
	ref, err := loadReference(ctx, dir, w.name, *seed)
	if err != nil {
		return err
	}
	b := &bench{w: w, input: filepath.Join(dir, w.file), ref: ref, tmp: filepath.Join(*out, "tmp")}
	if b.inputBytes, err = inputSize(b.input); err != nil {
		return err
	}
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return err
	}
	if *trace == 1 && w.name == "screen_perm" {
		if b.recall, err = b.survivorRecall(ctx); err != nil {
			return err
		}
	}

	// One untimed operation first, so lazy set-up and caches settle.
	warm, err := b.op(ctx, 0, nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	attempted, failed := 1, 0
	if warm.checkErr != nil {
		failed++
		fmt.Fprintln(os.Stderr, "answer check failed:", warm.checkErr)
	}
	var plain, traced []opResult
	var overhead []float64
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	// The next operation starts only if half of the last one still fits
	// before the deadline, so a run measures --seconds on average and
	// overruns it by at most half an operation.
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var last time.Duration
	for i := 1; i == 1 || time.Now().Add(last/2).Before(deadline); i++ {
		iterStart := time.Now()
		var res []opResult
		order := []*tracer{nil}
		if tr != nil {
			// Paired untraced and traced operations, alternating which
			// goes first.
			order = []*tracer{nil, tr}
			if i%2 == 0 {
				order = []*tracer{tr, nil}
			}
		}
		for _, t := range order {
			// Each operation starts from an empty heap, as a fresh
			// process would, so the peak reflects one operation.
			debug.FreeOSMemory()
			r, err := b.op(ctx, i, t)
			attempted++
			if err == nil {
				err = r.checkErr
			}
			if err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "operation failed:", err)
				continue
			}
			res = append(res, r)
			if t == nil {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
		if len(res) == 2 {
			p, t := res[0], res[1]
			if order[0] != nil {
				p, t = t, p
			}
			overhead = append(overhead, t.wall/p.wall)
		}
		last = time.Since(iterStart)
	}

	metrics := map[string]float64{}
	for _, m := range endToEnd {
		metrics[m.name] = median(plain, func(r opResult) float64 {
			switch m.name {
			case "wall_s":
				return r.wall
			case "setup_s":
				return r.setup
			case "gelem_per_s":
				return r.elements / r.searchS / 1e9
			}
			return 0
		})
	}
	metrics["peak_rss_mb"] = peakRSSMiB()
	report := endToEnd
	if tr != nil {
		for _, m := range perLayer {
			metrics[m.name] = median(traced, func(r opResult) float64 { return r.layers[m.name] })
		}
		metrics["trace.overhead"] = medianOf(overhead)
		report = perLayer
		if err := os.MkdirAll(filepath.Join(*out, "traces"), 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			return err
		}
	}
	return b.emit(*out, *seed, *trace, report, metrics, attempted, failed, plain, len(traced), tr)
}

// loadReference reads the stored reference answer, first generating the
// inputs and reference in a child process if this seed has none yet, so
// generation never counts toward this process's peak memory.
func loadReference(ctx context.Context, dir, name string, seed int64) (*reference, error) {
	path := filepath.Join(dir, "reference.json")
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, exe, "-prepare", "-workload", name, "-seed", fmt.Sprint(seed), "-dir", filepath.Dir(filepath.Dir(dir)))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("preparing inputs: %w", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ref, nil
}

// survivorRecall runs the screen's stage 1 through its public entry
// point and returns the share of planted SNPs among the survivors.
func (b *bench) survivorRecall(ctx context.Context) (float64, error) {
	sess, err := datafile.ReadSession(b.input, "auto", "")
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	sc, err := sess.ScreenStage1(ctx, seedPairs)
	if err != nil {
		return 0, err
	}
	surv, _, err := sc.SelectSurvivors(maxSurvivors)
	if err != nil {
		return 0, err
	}
	kept := 0
	for _, p := range b.ref.Planted {
		if slices.Contains(surv, p) {
			kept++
		}
	}
	return float64(kept) / float64(len(b.ref.Planted)), nil
}

func median(rs []opResult, f func(opResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// emit prints the human-readable summary and the fingerprint, writes
// the run's full record, and prints the result line last.
func (b *bench) emit(out string, seed int64, trace int, report []metric, metrics map[string]float64,
	attempted, failed int, plain []opResult, nTraced int, tr *tracer) error {
	host := fingerprint()
	host["workload"] = b.w.name
	host["seed"] = seed
	fmt.Printf("trigenebench %s seed=%d trace=%d: %d operations (%d untraced, %d traced), %d failed\n",
		b.w.name, seed, trace, attempted, len(plain), nTraced, failed)
	hostJSON, _ := json.Marshal(host) // a map of strings, numbers and bools always marshals
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("  %-28s %14.6g %s\n", "failed_ratio", float64(failed)/float64(attempted), "ratio")
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, metrics[m.name], m.unit)
	}
	if tr != nil {
		for _, m := range perLayer {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, metrics[m.name], m.unit)
		}
		fmt.Println("  self time by span, all traced operations:")
		self := selfTimes(tr.since(0))
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Printf("    %-26s %12.6f s\n", n, self[n])
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, m := range report {
		result.Metrics[m.name] = value{metrics[m.name], m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	samples := make([][3]float64, len(plain))
	for i, r := range plain {
		samples[i] = [3]float64{r.wall, r.setup, r.elements / r.searchS / 1e9}
	}
	record := map[string]any{
		"host":           host,
		"result":         json.RawMessage(line),
		"failed_ratio":   float64(failed) / float64(attempted),
		"metrics":        metrics,
		"untraced_ops":   samples,
		"untraced_shape": "wall_s, setup_s, gelem_per_s per operation",
	}
	raw, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, seed, trace)), raw, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fingerprint identifies the host and build a result came from, so
// results from different machines or settings never compare silently.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceHash(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				fp["commit"] = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				fp["dirty"] = true
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "model name":
				fp["cpu"] = val
			case "flags":
				flags := strings.Fields(val)
				fp["avx2"] = slices.Contains(flags, "avx2")
				fp["avx512f"] = slices.Contains(flags, "avx512f")
				fp["avx512_vpopcntdq"] = slices.Contains(flags, "avx512_vpopcntdq")
			}
			if _, done := fp["avx2"]; done && fp["cpu"] != nil {
				break
			}
		}
	}
	return fp
}

// sourceHash digests the Go sources and module files under the working
// directory (the checkout root), which identifies the code measured
// when the checkout carries no version control metadata.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
