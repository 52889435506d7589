package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trigene"
	"trigene/internal/cluster"
	"trigene/internal/datafile"
	"trigene/internal/obs"
)

// opResult is what one end-to-end operation measured.
type opResult struct {
	wall, setup float64
	// searchS and elements give gelem_per_s: the search call's time
	// (submit to Wait on the cluster) and its Report.Elements.
	searchS  float64
	elements float64
	// checkErr is the answer check's verdict.
	checkErr error
	// layers holds the per-layer values of a traced operation.
	layers map[string]float64
}

// op runs one operation of the workload from its input file to the
// checked answer. With tr non-nil it also records spans, attaches a
// metrics registry and derives the per-layer values.
func (b *bench) op(ctx context.Context, run int, tr *tracer) (opResult, error) {
	if b.w.name == "cluster" {
		return b.clusterOp(ctx, run, tr)
	}
	var res opResult
	var reg *obs.Registry
	first := 0
	if tr != nil {
		reg = obs.NewRegistry()
		first = tr.beginRun(run)
	}
	before := scrape(reg)
	root, endRoot := tr.start("op", 0)
	t0 := time.Now()

	var sess *trigene.Session
	var decodeS, openS float64
	if b.w.name == "order4" {
		// A .tpack is opened as a store directly: there is no decode.
		_, end := tr.start("store.open", root)
		s, err := trigene.OpenPack(b.input)
		end()
		if err != nil {
			return res, err
		}
		openS = time.Since(t0).Seconds()
		sess = s
	} else {
		_, end := tr.start("dataset.decode", root)
		mx, err := datafile.Read(b.input, "auto", "")
		end()
		if err != nil {
			return res, err
		}
		decodeS = time.Since(t0).Seconds()
		_, end = tr.start("store.open", root)
		s, err := trigene.NewSession(mx)
		end()
		if err != nil {
			return res, err
		}
		openS = time.Since(t0).Seconds() - decodeS
		sess = s
	}
	defer sess.Close()
	res.setup = time.Since(t0).Seconds()

	opts := []trigene.Option{trigene.WithTopK(topK), trigene.WithOrder(b.w.order)}
	if b.w.name == "screen_perm" {
		opts = append(opts, trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: maxSurvivors, SeedPairs: seedPairs}))
	}
	if tr != nil {
		opts = append(opts, trigene.WithMetrics(reg), trigene.WithTrace())
	}
	searchID, end := tr.start("engine.search", root)
	searchNs := tr.now()
	searchStart := time.Now()
	rep, err := sess.Search(ctx, opts...)
	res.searchS = time.Since(searchStart).Seconds()
	end()
	if err != nil {
		return res, err
	}
	res.elements = rep.Elements
	mid := scrape(reg)

	var perm []trigene.PermCandidate
	var permS float64
	if b.w.perms > 0 {
		_, end := tr.start("permtest", root)
		permStart := time.Now()
		popts := []trigene.Option{trigene.WithPermutations(b.w.perms), trigene.WithSeed(b.ref.PermSeed)}
		if tr != nil {
			popts = append(popts, trigene.WithMetrics(reg))
		}
		out, err := sess.PermutationTestAll(ctx, candidates(rep.TopK), popts...)
		permS = time.Since(permStart).Seconds()
		end()
		if err != nil {
			return res, err
		}
		perm = make([]trigene.PermCandidate, len(out))
		for i, r := range out {
			perm[i] = trigene.PermCandidate{SNPs: rep.TopK[i].SNPs, Observed: r.Observed, AsGoodOrBetter: r.AsGoodOrBetter, PValue: r.PValue}
		}
	}

	_, end = tr.start("check", root)
	res.checkErr = b.ref.check(answer{TopK: rep.TopK, Combinations: rep.Combinations, Perm: perm})
	end()
	res.wall = time.Since(t0).Seconds()
	endRoot()
	if tr == nil {
		return res, nil
	}

	// Spans the library timed itself, nested under the search span:
	// the lazy encode (Report.Trace) and the screen's two stages
	// (Report.Screen).
	encodeS := 0.0
	if rep.Trace != nil {
		for _, s := range rep.Trace.Spans {
			if s.Name == "encode" {
				encodeS += float64(s.DurationNs) / 1e9
				tr.add(0, searchID, "store.encode", searchNs+s.StartNs, searchNs+s.StartNs+s.DurationNs)
			}
		}
	}
	after := scrape(reg)
	l := newLayers()
	l["dataset.decode_s"] = decodeS
	if decodeS > 0 {
		l["dataset.decode_mb_per_s"] = float64(b.inputBytes) / 1e6 / decodeS
	}
	l["store.encode_s"] = encodeS
	l["store.open_s"] = openS
	l["store.builds"] = delta(before, after, "trigene_store_builds_total")
	engineLayers(l, before, mid, rep, res.searchS)
	if sc := rep.Screen; sc != nil {
		s1, s2 := float64(sc.Stage1Ns)/1e9, float64(sc.Stage2Ns)/1e9
		at := searchNs
		tr.add(0, searchID, "screen.stage1", at, at+sc.Stage1Ns)
		tr.add(0, searchID, "screen.stage2", at+sc.Stage1Ns, at+sc.Stage1Ns+sc.Stage2Ns)
		l["screen.stage1_s"], l["screen.stage2_s"] = s1, s2
		l["screen.pairs"] = float64(sc.PairsScanned)
		l["screen.survivor_recall"] = b.recall
	}
	if b.w.perms > 0 {
		l["permtest.s"] = permS
		l["permtest.perms_per_s"] = float64(b.w.perms*len(perm)) / permS
	}
	l["trace.unattributed_s"] = selfTimes(tr.since(first))["op"]
	res.layers = l
	return res, nil
}

// engineLayers fills the engine and sched values from the search's
// registry interval and Report.
func engineLayers(l map[string]float64, before, after map[string]float64, rep *trigene.Report, searchS float64) {
	l["engine.search_s"] = searchS
	l["engine.gelem_per_s"] = rep.Elements / searchS / 1e9
	l["engine.combinations"] = float64(rep.Combinations)
	for _, ap := range engineApproaches {
		l["engine.tiles."+ap] = delta(before, after, `trigene_engine_tiles_total{approach="`+ap+`"}`)
	}
	l["sched.tiles_claimed"] = delta(before, after, "trigene_sched_tiles_claimed_total")
	// The grain of the space that claimed the most tiles.
	most := -1.0
	for _, space := range []string{"flat", "blocked"} {
		n := delta(before, after, `trigene_sched_tiles_claimed_total{space="`+space+`"}`)
		if n > most && n > 0 {
			most = n
			l["sched.grain"] = after[`trigene_sched_grain{space="`+space+`"}`]
		}
	}
}

// clusterOp runs the cluster workload: a durable loopback coordinator
// and two in-process workers serve a search job cut into tiles, then a
// permutation job over its top-K.
func (b *bench) clusterOp(ctx context.Context, run int, tr *tracer) (opResult, error) {
	var res opResult
	var reg *obs.Registry
	first := 0
	if tr != nil {
		reg = obs.NewRegistry()
		first = tr.beginRun(run)
	}
	root, endRoot := tr.start("op", 0)
	tr.setParent(root)
	t0 := time.Now()

	_, end := tr.start("store.open", root)
	sess, err := datafile.ReadSession(b.input, "auto", "")
	end()
	if err != nil {
		return res, err
	}
	defer sess.Close()
	openS := time.Since(t0).Seconds()

	_, end = tr.start("cluster.recover", root)
	stateDir, err := os.MkdirTemp(b.tmp, "state-")
	if err != nil {
		end()
		return res, err
	}
	defer os.RemoveAll(stateDir)
	co, err := cluster.Recover(cluster.Config{StateDir: stateDir})
	end()
	if err != nil {
		return res, err
	}
	defer co.Close()
	co.Instrument(reg)

	_, end = tr.start("cluster.start", root)
	var h http.Handler = co
	var hw *handler
	if tr != nil {
		hw = &handler{tr: tr, next: co}
		h = hw
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Traced operations give the client and each worker a transport of
	// its own (tps[0] is the client's), so every worker's exchanges form
	// one sequence.
	var tps []*transport
	newClient := func() *cluster.Client {
		c := cluster.NewClient(srv.URL)
		c.Poll = pollEvery
		if tr != nil {
			tp := &transport{tr: tr, base: http.DefaultTransport}
			tps = append(tps, tp)
			c.HTTPClient = &http.Client{Transport: tp}
		}
		return c
	}
	cl := newClient()
	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		stop()
		wg.Wait()
	}()
	for i := 0; i < clusterWorkers; i++ {
		w := &cluster.Worker{Client: newClient(), ID: fmt.Sprintf("bench-w%d", i), Poll: pollEvery}
		w.Instrument(reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx) // returns the context's error once stopped
		}()
	}
	end()
	res.setup = time.Since(t0).Seconds()

	before := scrape(reg)
	// job submits one spec and waits for its merged Report.
	job := func(spec trigene.SearchSpec, tiles int) (*trigene.Report, jobTimes, error) {
		var jt jobTimes
		sid, end := tr.start("cluster.submit", root)
		tr.setParent(sid)
		jt.submit = tr.now()
		id, err := cl.SubmitSession(ctx, sess, spec, tiles, "")
		end()
		if err != nil {
			return nil, jt, err
		}
		jt.waitID, end = tr.start("cluster.wait", root)
		tr.setParent(jt.waitID)
		jt.wait = tr.now()
		rep, err := cl.Wait(ctx, id)
		end()
		jt.done = tr.now()
		tr.setParent(root)
		return rep, jt, err
	}
	searchStart := time.Now()
	rep, searchAt, err := job(trigene.SearchSpec{TopK: topK, Workers: 1}, clusterTiles)
	res.searchS = time.Since(searchStart).Seconds()
	if err != nil {
		return res, err
	}
	res.elements = rep.Elements
	mid := scrape(reg)
	permStart := time.Now()
	spec := trigene.SearchSpec{Workers: 1, Perm: &trigene.PermSpec{SNPs: candidates(rep.TopK), Permutations: b.w.perms, Seed: b.ref.PermSeed}}
	prep, permAt, err := job(spec, permTiles)
	permS := time.Since(permStart).Seconds()
	if err != nil {
		return res, err
	}
	if prep.Perm == nil {
		return res, fmt.Errorf("permutation job answered without a perm block")
	}
	_, end = tr.start("check", root)
	res.checkErr = b.ref.check(answer{TopK: rep.TopK, Combinations: rep.Combinations, Perm: prep.Perm.Results})
	end()
	res.wall = time.Since(t0).Seconds()
	endRoot()
	if tr == nil {
		return res, nil
	}

	after := scrape(reg)
	l := newLayers()
	l["store.open_s"] = openS
	l["store.builds"] = delta(before, after, "trigene_store_builds_total")
	tileS := delta(before, mid, "trigene_worker_tile_seconds_sum")
	engineLayers(l, before, mid, rep, tileS)
	l["permtest.s"] = permS
	l["permtest.perms_per_s"] = float64(b.w.perms*len(prep.Perm.Results)) / permS

	var leaseMs, doneMs, tileMs []float64
	var polls, empty int
	var lastDone [2]int64
	jobs := [2]jobTimes{searchAt, permAt}
	for _, tp := range tps {
		grant := map[string]int64{}
		// prev is the end of the worker's previous exchange on its main
		// loop (heartbeat renewals run beside it): the worker computes
		// between it and the next completion.
		var prev int64
		for _, e := range tp.take() {
			ms := float64(e.endNs-e.startNs) / 1e6
			switch e.route {
			case "lease":
				polls++
				leaseMs = append(leaseMs, ms)
				if e.empty {
					empty++
				}
				for _, tok := range e.grantedTok {
					grant[tok] = e.endNs
				}
			case "done":
				doneMs = append(doneMs, ms)
				if g, ok := grant[e.token]; ok {
					tileMs = append(tileMs, float64(e.endNs-g)/1e6)
				}
				for i, at := range jobs {
					if e.startNs >= at.submit && e.endNs <= at.done {
						lastDone[i] = max(lastDone[i], e.endNs)
						tr.add(0, at.waitID, []string{"engine.tile", "permtest.tile"}[i], prev, e.startNs)
					}
				}
			case "dataset":
				l["cluster.dataset_fetch_s"] += ms / 1e3
			case "renew":
				continue
			}
			prev = e.endNs
		}
	}
	l["cluster.submit_s"] = float64(searchAt.wait-searchAt.submit+permAt.wait-permAt.submit) / 1e9
	l["cluster.lease_ms.p50"], l["cluster.lease_ms.p90"] = quantile(leaseMs, 0.5), quantile(leaseMs, 0.9)
	l["cluster.done_ms.p50"], l["cluster.done_ms.p90"] = quantile(doneMs, 0.5), quantile(doneMs, 0.9)
	l["cluster.tile_ms.p50"], l["cluster.tile_ms.p90"] = quantile(tileMs, 0.5), quantile(tileMs, 0.9)
	if polls > 0 {
		l["cluster.lease_empty_ratio"] = float64(empty) / float64(polls)
	}
	for i, at := range jobs {
		if lastDone[i] > 0 {
			l["cluster.result_lag_s"] += float64(at.done-lastDone[i]) / 1e9
		}
	}
	l["cluster.reissued"] = delta(before, after, "trigene_coord_leases_reissued_total")
	l["cluster.wire_bytes"] = float64(hw.bytes.Load())
	l["wal.fsyncs"] = delta(before, after, "trigene_wal_fsyncs_total")
	l["wal.fsync_s"] = delta(before, after, "trigene_wal_fsync_seconds_sum")
	l["wal.append_bytes"] = delta(before, after, "trigene_wal_append_bytes_total")
	l["trace.unattributed_s"] = selfTimes(tr.since(first))["op"]
	res.layers = l
	return res, nil
}

// jobTimes are a cluster job's trace offsets — submit start, wait
// start, wait end — and its wait span's id.
type jobTimes struct {
	submit, wait, done int64
	waitID             int64
}

const (
	// pollEvery is the workers' idle lease poll and the client's job
	// status poll: short, so polling adds little to the cluster wall.
	pollEvery = 10 * time.Millisecond
	// permTiles cuts the cluster's permutation job into ranges.
	permTiles = 8
)

// engineApproaches are the approach labels of trigene_engine_tiles_total
// the workloads exercise: the fused default and the sharded V2.
var engineApproaches = []string{"V4F", "V2"}

// quantile returns the q-quantile of xs by linear interpolation (0 for
// no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// inputSize is the byte size of the workload's input files.
func inputSize(path string) (int64, error) {
	paths := []string{path}
	if filepath.Ext(path) == ".bed" {
		base := path[:len(path)-len(".bed")]
		paths = append(paths, base+".bim", base+".fam")
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
