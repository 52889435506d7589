package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trigene"
	"trigene/internal/wal"
)

// isBadRequest reports whether err is the coordinator's 400 answer.
func isBadRequest(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusBadRequest
}

// TestDurableMalformedScreenScores posts stage-1 scores whose Best is
// shorter than SNPs, and scores with an out-of-range top pair, as the
// last stage-1 shard of a durable screened job. The coordinator must
// answer 400 and leave the shard pending, not merge the screen; a
// coordinator recovered from the same state dir must come up and
// finish the job bit-exactly.
func TestDurableMalformedScreenScores(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	spec := screenedSpec()
	want := localScreened(t, sess, spec)
	ctx := context.Background()

	cfg := Config{StateDir: t.TempDir(), LeaseTTL: time.Second}
	cl, proxy, _ := newDurableCluster(t, cfg)
	id, err := cl.Submit(ctx, mx, spec, 2, "poison")
	if err != nil {
		t.Fatal(err)
	}
	g1, ok, err := cl.lease(ctx, LeaseRequest{Worker: "p"})
	if err != nil || !ok || g1.Stage != stageScreen {
		t.Fatalf("first grant: ok=%v stage=%q err=%v", ok, g1.Stage, err)
	}
	scores, err := sess.ScreenStage1(ctx, 3, trigene.WithShard(g1.Tile, g1.StageCount), trigene.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := cl.complete(ctx, g1.Token, scores); err != nil || !acc {
		t.Fatalf("stage-1 completion: accepted=%v err=%v", acc, err)
	}
	g2, ok, err := cl.lease(ctx, LeaseRequest{Worker: "p"})
	if err != nil || !ok || g2.Stage != stageScreen {
		t.Fatalf("second grant: ok=%v stage=%q err=%v", ok, g2.Stage, err)
	}
	seen := make([]bool, mx.SNPs())
	for i := range seen {
		seen[i] = true
	}
	short := &trigene.ScreenScores{SNPs: mx.SNPs(), Best: []float64{1}, Seen: seen, Objective: "k2"}
	if _, err := cl.complete(ctx, g2.Token, short); !isBadRequest(err) {
		t.Fatalf("short-Best stage-1 scores answered %v, want 400", err)
	}
	// Top pairs become the pinned stage-2 seeds, so they must name SNPs
	// of the dataset.
	farSeed := *scores
	farSeed.TopPairs = []trigene.SearchCandidate{{SNPs: []int{0, mx.SNPs()}, Score: 1}}
	if _, err := cl.complete(ctx, g2.Token, &farSeed); !isBadRequest(err) {
		t.Fatalf("out-of-range top pair answered %v, want 400", err)
	}
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.ScreenDone != 1 {
		t.Fatalf("after the malformed post: state %s, screen %d/%d done; want running, 1 done", st.State, st.ScreenDone, st.ScreenTiles)
	}
	if err := cl.renew(ctx, g2.Token, RenewRequest{}); err != nil {
		t.Fatalf("lease of the rejected tile is no longer current: %v", err)
	}

	proxy.crash()
	proxy.resume(t, cfg)
	startWorkers(t, cl, 2)
	got, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "screened job after a malformed stage-1 post", got, want)
}

// TestSearchTileShapeCheck: a search tile Report that names SNPs
// outside the dataset, unsorted or of the wrong order, ranks by another
// objective, or carries more candidates than the job keeps is refused
// with 400 on a live lease, and the tile stays pending: the correct
// Report still completes it.
func TestSearchTileShapeCheck(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl, _ := newTestCluster(t, Config{LeaseTTL: 5 * time.Second})
	spec := trigene.SearchSpec{TopK: 3, Objective: "k2", Workers: 1}
	id, err := cl.Submit(ctx, mx, spec, 2, "shape")
	if err != nil {
		t.Fatal(err)
	}
	g, ok, err := cl.lease(ctx, LeaseRequest{Worker: "s"})
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Search(ctx, append(opts, trigene.WithShard(g.Tile, g.Tiles))...)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func(r *trigene.Report)
	}{
		{"out-of-range SNP", func(r *trigene.Report) { r.TopK[0].SNPs = []int{3, 9, mx.SNPs()} }},
		{"unsorted SNPs", func(r *trigene.Report) { r.TopK[0].SNPs = []int{9, 3, 15} }},
		{"wrong order", func(r *trigene.Report) { r.Order = 2 }},
		{"wrong objective", func(r *trigene.Report) { r.Objective = "gini" }},
		{"too many candidates", func(r *trigene.Report) { r.TopK = append(r.TopK, r.TopK[0]) }},
	}
	for _, tc := range cases {
		bad := *rep
		bad.TopK = make([]trigene.SearchCandidate, len(rep.TopK))
		for i, c := range rep.TopK {
			bad.TopK[i] = trigene.SearchCandidate{SNPs: append([]int(nil), c.SNPs...), Score: c.Score}
		}
		tc.corrupt(&bad)
		if _, err := cl.complete(ctx, g.Token, &bad); !isBadRequest(err) {
			t.Fatalf("%s: completion answered %v, want 400", tc.name, err)
		}
	}
	if st, err := cl.Status(ctx, id); err != nil || st.Done != 0 {
		t.Fatalf("after malformed posts: %+v, %v; want 0 tiles done", st, err)
	}
	if acc, err := cl.complete(ctx, g.Token, rep); err != nil || !acc {
		t.Fatalf("correct completion after the refusals: accepted=%v err=%v", acc, err)
	}
}

// TestRecoverParentFormatSnapshot recovers a hand-written snapshot in
// the format that carried per-kind result arrays ("reports"), with two
// completed tiles: one whose Report sits under the old key and one
// with no result at all. Neither has a payload the search phase can
// use, so both are restored as not done and re-issue, and the job
// still ends bit-exact with an uninterrupted run.
func TestRecoverParentFormatSnapshot(t *testing.T) {
	mx := plantedMatrix(t)
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := trigene.SearchSpec{TopK: 4, Workers: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Search(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tile0, err := sess.Search(ctx, append(opts, trigene.WithShard(0, 3))...)
	if err != nil {
		t.Fatal(err)
	}
	rawTile0, err := json.Marshal(tile0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var pack bytes.Buffer
	if err := sess.WritePack(&pack); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "packs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "packs", sess.DatasetHash()+".tpack"), pack.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := fmt.Sprintf(`{"seq":1,"jobs":[{"id":"j1","name":"old","spec":{"topK":4,"workers":1},"tiles":3,`+
		`"state":"running","sha":%q,"snps":%d,"samples":%d,"leaseSeq":2,`+
		`"tileStates":[{"s":2,"q":1,"a":1},{"s":2,"q":2,"a":1},{"s":0}],`+
		`"reports":[%s,null,null],"sub":%d}]}`,
		sess.DatasetHash(), sess.SNPs(), sess.Samples(), rawTile0, time.Now().UnixNano())
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte(snap)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cl, _, _ := newDurableCluster(t, Config{StateDir: dir, LeaseTTL: 5 * time.Second})
	st, err := cl.Status(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Done != 0 {
		t.Fatalf("recovered status %+v; want running with both completed tiles re-issuing", st)
	}
	startWorkers(t, cl, 2)
	got, err := cl.Wait(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "parent-format snapshot", got, local)
}

// FuzzTilePayload feeds arbitrary bytes to every phase kind's check
// and, when the check accepts them, to its merge: a worker-posted
// payload must be refused or merged, never panic the coordinator.
func FuzzTilePayload(f *testing.F) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 12, Samples: 200, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	search := trigene.SearchSpec{TopK: 3, Workers: 1}
	screened := trigene.SearchSpec{TopK: 3, Workers: 1, Screen: &trigene.ScreenSpec{MaxSurvivors: 6, SeedPairs: 2}}
	perm := trigene.SearchSpec{Workers: 1, Perm: &trigene.PermSpec{SNPs: [][]int{{0, 1, 2}}, Permutations: 8, Seed: 1}}

	rep, err := sess.Search(ctx, trigene.WithTopK(3), trigene.WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	scores, err := sess.ScreenStage1(ctx, 2, trigene.WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	ps, err := sess.PermutationSlice(ctx, perm.Perm.SNPs, 0, 8, trigene.WithSeed(1), trigene.WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{rep, scores, ps} {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	snps := mx.SNPs()
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := [][]*phase{
			newPhases(search, snps, 0, 1),
			newPhases(screened, snps, 1, 2),
			newPhases(perm, snps, 0, 1),
		}
		for _, phases := range jobs {
			for _, ph := range phases {
				if ph.check(data) != nil {
					continue
				}
				payloads := make([]json.RawMessage, ph.count)
				for i := range payloads {
					payloads[i] = data
				}
				ph.merge(payloads, time.Now())
			}
		}
	})
}
