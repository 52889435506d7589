package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"trigene"
	"trigene/internal/datafile"
	"trigene/internal/dataset"
	"trigene/internal/score"
)

// workload fixes one benchmark scenario's input shape and the answer
// the benchmark checks. The program only ever sees the generated
// files; the seed picks genotypes, phenotypes and the planted SNPs.
type workload struct {
	name    string
	snps    int
	samples int
	// file is the input's base name; its extension is the format
	// (.txt trigene text, .bed PLINK binary fileset, .tpack pack).
	file  string
	order int
	// plantedBest: the planted triple must come out as Best.
	plantedBest bool
	// perms is the permutation count of the significance step (0 =
	// none).
	perms int
}

const (
	topK = 10
	// The screened search keeps a fixed survivor budget and seed list,
	// so stage 2 does the same work on every seed.
	maxSurvivors = 64
	seedPairs    = 8
	// The cluster job is cut into this many tiles, two workers lease
	// them, and each worker's search runs on one engine worker.
	clusterTiles   = 128
	clusterWorkers = 2
)

// scan3 runs by hand but is left out of BENCHMARK.json: on a shared
// 2-vCPU Xeon VM the fused V4F kernel's speed swung up to 2x within an
// hour (0.46-0.98 s per operation, while the other workloads moved
// about 15%), so neither its run-to-run spread nor its median stayed
// inside a regression bound of 24%. Its layers are still measured:
// screen_perm runs V4F and sched on the survivors.
var workloads = map[string]workload{
	"scan3":       {name: "scan3", snps: 160, samples: 4000, file: "scan3.txt", order: 3, plantedBest: true},
	"screen_perm": {name: "screen_perm", snps: 2000, samples: 4000, file: "screen_perm.bed", order: 3, plantedBest: true, perms: 10000},
	"order4":      {name: "order4", snps: 36, samples: 4000, file: "order4.tpack", order: 4},
	"cluster":     {name: "cluster", snps: 160, samples: 4000, file: "cluster.tpack", order: 3, plantedBest: true, perms: 2000},
}

// reference is the stored answer of one workload and seed, computed
// once, when its inputs are generated, by a different path than the
// measured one.
type reference struct {
	Workload string                    `json:"workload"`
	Seed     int64                     `json:"seed"`
	Planted  []int                     `json:"planted"`
	TopK     []trigene.SearchCandidate `json:"topK"`
	// Combinations is the exhaustive search's count (0 on the screened
	// workload, whose count depends on the screen).
	Combinations int64                   `json:"combinations,omitempty"`
	PermSeed     int64                   `json:"permSeed,omitempty"`
	Perm         []trigene.PermCandidate `json:"perm,omitempty"`
	// Path names how the reference was computed.
	Path string `json:"path"`
}

// plantedTriple draws the three planted SNPs from the seed, spread over
// the dataset so no workload favors low or high indices.
func plantedTriple(rng *rand.Rand, m int) [3]int {
	idx := rng.Perm(m)[:3]
	sort.Ints(idx)
	return [3]int{idx[0], idx[1], idx[2]}
}

// generate draws the workload's matrix from the seed.
func (w workload) generate(seed int64) (*trigene.Matrix, [3]int, error) {
	rng := rand.New(rand.NewSource(seed ^ int64(len(w.name))<<40))
	planted := plantedTriple(rng, w.snps)
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: w.snps, Samples: w.samples, Seed: rng.Int63(),
		MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{SNPs: planted, Penetrance: trigene.ThresholdPenetrance(3, 0.1, 0.9)},
	})
	return mx, planted, err
}

// prepare writes the workload's input file(s) and its reference answer
// into dir. reference.json is written last, so its presence marks a
// complete set.
func prepare(ctx context.Context, w workload, seed int64, dir string) error {
	mx, planted, err := w.generate(seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, w.file)
	if err := writeInput(path, mx); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	// The reference starts from the written file, so a decoder that
	// alters the dataset is caught as well.
	sess, err := datafile.ReadSession(path, "auto", "")
	if err != nil {
		return err
	}
	defer sess.Close()
	ref := &reference{Workload: w.name, Seed: seed, Planted: planted[:]}
	switch w.name {
	case "scan3", "cluster":
		// V2 (the flat pipeline) scores every triple on a different
		// kernel than the default fused V4F the benchmark measures.
		rep, err := sess.Search(ctx, trigene.WithTopK(topK), trigene.WithApproach(trigene.V2Split))
		if err != nil {
			return err
		}
		ref.TopK, ref.Combinations, ref.Path = rep.TopK, rep.Combinations, "exhaustive V2 search"
	case "screen_perm":
		rep, err := sess.Search(ctx, trigene.WithTopK(topK), trigene.WithApproach(trigene.V2Split),
			trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: maxSurvivors, SeedPairs: seedPairs}))
		if err != nil {
			return err
		}
		ref.TopK, ref.Path = rep.TopK, "screened search with a V2 stage 2"
	case "order4":
		ref.TopK, ref.Combinations, err = oracleTopK(sess.Matrix(), w.order)
		if err != nil {
			return err
		}
		ref.Path = "per-sample counting over every 4-combination"
	}
	if w.perms > 0 {
		ref.PermSeed = seed + 1
		ref.Perm, err = slicedPerms(ctx, sess, candidates(ref.TopK), w.perms, ref.PermSeed)
		if err != nil {
			return err
		}
		ref.Path += "; p-values from two PermutationSlice ranges merged by MergePerms"
	}
	raw, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "reference.json.tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "reference.json"))
}

// writeInput writes mx in the format path's extension names.
func writeInput(path string, mx *trigene.Matrix) error {
	if filepath.Ext(path) == ".bed" {
		return writeBED(path, mx)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	switch filepath.Ext(path) {
	case ".txt":
		err = trigene.WriteText(bw, mx)
	case ".tpack":
		var s *trigene.Session
		if s, err = trigene.NewSession(mx); err == nil {
			err = s.WritePack(bw)
		}
	default:
		err = fmt.Errorf("no writer for %s", path)
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeBED writes a PLINK 1 SNP-major fileset: path (.bed) plus the
// .bim and .fam sidecars next to it.
func writeBED(path string, mx *trigene.Matrix) error {
	m, n := mx.SNPs(), mx.Samples()
	bed := make([]byte, 0, 3+m*((n+3)/4))
	bed = append(bed, 0x6c, 0x1b, 0x01)
	block := make([]byte, (n+3)/4)
	for i := 0; i < m; i++ {
		clear(block)
		for j, g := range mx.Row(i) {
			// dosage 2 -> 00 (hom A1), 1 -> 10 (het), 0 -> 11 (hom A2)
			code := [3]byte{0b11, 0b10, 0b00}[g]
			block[j/4] |= code << uint(2*(j%4))
		}
		bed = append(bed, block...)
	}
	var bim, fam []byte
	for i := 0; i < m; i++ {
		bim = fmt.Appendf(bim, "1 rs%d 0 %d A G\n", i, 1000+i)
	}
	for j := 0; j < n; j++ {
		fam = fmt.Appendf(fam, "f%d i%d 0 0 1 %d\n", j, j, mx.Phen(j)+1)
	}
	base := path[:len(path)-len(".bed")]
	for _, f := range []struct {
		path string
		data []byte
	}{{path, bed}, {base + ".bim", bim}, {base + ".fam", fam}} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// oracleTopK ranks every k-combination by per-sample counting — no
// bit planes, no kernel — scored under the default objective. Each
// recursion level extends the parent's per-sample cell indices by one
// SNP, so a combination costs one pass over the samples.
func oracleTopK(mx *trigene.Matrix, k int) ([]trigene.SearchCandidate, int64, error) {
	obj, err := score.New("k2", mx.Samples())
	if err != nil {
		return nil, 0, err
	}
	cs, ok := obj.(score.CellScorer)
	if !ok {
		return nil, 0, fmt.Errorf("objective %s cannot score k-way tables", obj.Name())
	}
	n := mx.Samples()
	cells := 1
	for i := 0; i < k; i++ {
		cells *= 3
	}
	ctrl, cases := make([]int32, cells), make([]int32, cells)
	phen := make([]uint8, n)
	for j := range phen {
		phen[j] = mx.Phen(j)
	}
	idx := make([][]int32, k+1)
	for i := range idx {
		idx[i] = make([]int32, n)
	}
	var best []trigene.SearchCandidate
	var count int64
	snps := make([]int, k)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		for s := from; s < mx.SNPs(); s++ {
			snps[pos] = s
			row, parent, cur := mx.Row(s), idx[pos], idx[pos+1]
			for j, g := range row {
				cur[j] = parent[j]*3 + int32(g)
			}
			if pos+1 < k {
				rec(pos+1, s+1)
				continue
			}
			clear(ctrl)
			clear(cases)
			for j, c := range cur {
				if phen[j] == dataset.Case {
					cases[c]++
				} else {
					ctrl[c]++
				}
			}
			count++
			c := trigene.SearchCandidate{Score: cs.ScoreCells(ctrl, cases)}
			i := sort.Search(len(best), func(i int) bool { return better(obj, c, snps, best[i]) })
			if i < topK {
				c.SNPs = append([]int(nil), snps...)
				best = slices.Insert(best, i, c)
				if len(best) > topK {
					best = best[:topK]
				}
			}
		}
	}
	rec(0, 0)
	return best, count, nil
}

// better is the library's documented candidate order: objective
// first, then lexicographic SNP indices.
func better(obj score.Objective, a trigene.SearchCandidate, aSNPs []int, b trigene.SearchCandidate) bool {
	if a.Score != b.Score {
		return obj.Better(a.Score, b.Score)
	}
	return slices.Compare(aSNPs, b.SNPs) < 0
}

// slicedPerms computes the permutation test by a different path than
// PermutationTestAll: two disjoint index ranges, merged and finalized
// the way a cluster coordinator does it.
func slicedPerms(ctx context.Context, sess *trigene.Session, cands [][]int, perms int, seed int64) ([]trigene.PermCandidate, error) {
	half := perms / 2
	var parts []*trigene.PermScores
	for _, r := range [][2]int{{0, half}, {half, perms - half}} {
		ps, err := sess.PermutationSlice(ctx, cands, r[0], r[1], trigene.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		parts = append(parts, ps)
	}
	merged, err := trigene.MergePerms(parts...)
	if err != nil {
		return nil, err
	}
	rep, err := trigene.FinalizePerms(&trigene.PermSpec{SNPs: cands, Permutations: perms, Seed: seed}, merged, len(parts))
	if err != nil {
		return nil, err
	}
	return rep.Perm.Results, nil
}

func candidates(top []trigene.SearchCandidate) [][]int {
	out := make([][]int, len(top))
	for i, c := range top {
		out[i] = c.SNPs
	}
	return out
}
