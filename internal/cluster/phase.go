package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"trigene"
	"trigene/internal/score"
)

// Wire stages (LeaseGrant.Stage): the Session entry point a grant's
// tiles run, and so the payload their completions carry.
const (
	stageSearch = ""       // Session.Search → Report
	stageScreen = "screen" // Session.ScreenStage1 → ScreenScores
	stagePerm   = "perm"   // Session.PermutationSlice → PermScores
)

// phase is one step of a job. It owns the lease units [base,
// base+count), whose grants carry the phase's stage and spec. A
// completion counts only once check accepts its payload; when every
// unit of the phase completed, merge folds the payloads (in unit
// order) and either pins the next phase's spec or returns the job's
// Report.
type phase struct {
	stage       string
	base, count int
	// spec is what the phase's grants carry. It is nil until the
	// previous phase's merge pins it; no unit of the phase is granted
	// before that.
	spec *trigene.SearchSpec
	// screen and opened are set when a screen phase pins this one: the
	// stage-1 audit record the job's Report carries, and the pin
	// instant its stage-2 time is measured from.
	screen *trigene.ScreenInfo
	opened time.Time

	check func(raw json.RawMessage) error
	merge func(payloads []json.RawMessage, now time.Time) (*trigene.Report, error)
}

// newPhases builds a job's phase list from its submitted spec. This is
// the one place the job kind is decided: a permutation test is one
// perm phase, a screened search (survivors not pinned) is a screen
// phase of screenTiles units followed by a search phase, and anything
// else is one search phase. Recovery rebuilds the same list from the
// journaled submission.
func newPhases(spec trigene.SearchSpec, snps, screenTiles, tiles int) []*phase {
	switch {
	case spec.Perm != nil:
		return []*phase{permPhase(spec, tiles)}
	case screenTiles > 0:
		search := searchPhase(nil, spec, snps, screenTiles, tiles-screenTiles)
		return []*phase{screenPhase(spec, snps, screenTiles, search), search}
	default:
		return []*phase{searchPhase(&spec, spec, snps, 0, tiles)}
	}
}

// decodeAll decodes a merged phase's payloads.
func decodeAll[T any](payloads []json.RawMessage, decode func(json.RawMessage) (*T, error)) ([]*T, error) {
	out := make([]*T, len(payloads))
	for i, raw := range payloads {
		v, err := decode(raw)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// checkCandidates requires every candidate to be an order-k
// combination of strictly increasing SNP indices inside the dataset.
func checkCandidates(cands []trigene.SearchCandidate, order, snps int) error {
	for _, c := range cands {
		if len(c.SNPs) != order {
			return fmt.Errorf("candidate %v is not an order-%d combination", c.SNPs, order)
		}
		for i, s := range c.SNPs {
			if s < 0 || s >= snps || (i > 0 && s <= c.SNPs[i-1]) {
				return fmt.Errorf("candidate %v is not strictly increasing within the dataset's %d SNPs", c.SNPs, snps)
			}
		}
	}
	return nil
}

// searchPhase shards the combination space: tile t of the phase is
// Session.Search(WithShard(t−base, count)). pinned is nil when a
// screen phase pins the spec later. A tile Report must match the job's
// order and objective, carry at most TopK candidates, and name only
// strictly increasing SNP indices inside the dataset.
func searchPhase(pinned *trigene.SearchSpec, spec trigene.SearchSpec, snps, base, count int) *phase {
	order, topK := spec.Order, spec.TopK
	if order == 0 {
		order = 3
	}
	if topK == 0 {
		topK = 1
	}
	decode := func(raw json.RawMessage) (*trigene.Report, error) {
		var rep trigene.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("decoding tile report: %w", err)
		}
		if rep.Order != order {
			return nil, fmt.Errorf("tile report is an order-%d search; the job runs order %d", rep.Order, order)
		}
		// An empty spec objective is the backend's default, which the
		// tiles of one job agree on (MergeReports enforces that).
		if _, err := score.New(rep.Objective, 1); err != nil || (spec.Objective != "" && rep.Objective != spec.Objective) {
			return nil, fmt.Errorf("tile report ranks by %q; the job's objective is %q", rep.Objective, spec.Objective)
		}
		if len(rep.TopK) > topK {
			return nil, fmt.Errorf("tile report carries %d candidates; the job keeps %d", len(rep.TopK), topK)
		}
		if err := checkCandidates(rep.TopK, order, snps); err != nil {
			return nil, err
		}
		return &rep, nil
	}
	ph := &phase{stage: stageSearch, base: base, count: count, spec: pinned}
	ph.check = func(raw json.RawMessage) error { _, err := decode(raw); return err }
	ph.merge = func(payloads []json.RawMessage, now time.Time) (*trigene.Report, error) {
		reps, err := decodeAll(payloads, decode)
		if err != nil {
			return nil, err
		}
		merged, err := trigene.MergeReports(reps...)
		if err != nil {
			return nil, fmt.Errorf("merging tile reports: %w", err)
		}
		// The tiles ran pinned and know nothing of the stage-1 scan; the
		// audit record is the one the screen phase assembled.
		if ph.screen != nil {
			info := *ph.screen
			info.Stage2Ns = now.Sub(ph.opened).Nanoseconds()
			merged.Screen = &info
		}
		return merged, nil
	}
	return ph
}

// screenPhase shards the stage-1 pair scan of a screened job. Its
// merge is deterministic given the shard scores, so recovery re-pins
// the identical stage-2 spec instead of journaling it: MergeScreens,
// then the survivor set under the submitted budget and the seed list,
// pinned into next. Scores that cannot seat an order-k search fail the
// job, since re-running stage 1 would reproduce them.
func screenPhase(spec trigene.SearchSpec, snps, count int, next *phase) *phase {
	decode := func(raw json.RawMessage) (*trigene.ScreenScores, error) {
		var sc trigene.ScreenScores
		if err := json.Unmarshal(raw, &sc); err != nil {
			return nil, fmt.Errorf("decoding stage-1 screen scores: %w", err)
		}
		if err := sc.ValidateShape(); err != nil {
			return nil, err
		}
		if sc.SNPs != snps {
			return nil, fmt.Errorf("stage-1 scores cover %d SNPs; the job's dataset has %d", sc.SNPs, snps)
		}
		// The top pairs become the stage-2 seeds every grant carries.
		if err := checkCandidates(sc.TopPairs, 2, snps); err != nil {
			return nil, err
		}
		return &sc, nil
	}
	order := spec.Order
	if order == 0 {
		order = 3
	}
	ph := &phase{stage: stageScreen, base: 0, count: count, spec: &spec}
	ph.check = func(raw json.RawMessage) error { _, err := decode(raw); return err }
	ph.merge = func(payloads []json.RawMessage, now time.Time) (*trigene.Report, error) {
		scores, err := decodeAll(payloads, decode)
		if err != nil {
			return nil, err
		}
		merged, err := trigene.MergeScreens(scores...)
		if err != nil {
			return nil, fmt.Errorf("merging stage-1 scores: %w", err)
		}
		survivors, threshold, err := merged.SelectSurvivors(spec.Screen.MaxSurvivors)
		if err != nil {
			return nil, fmt.Errorf("selecting screen survivors: %w", err)
		}
		if len(survivors) < order {
			return nil, fmt.Errorf("screen kept %d survivors, fewer than the order-%d search needs", len(survivors), order)
		}
		seeds := merged.SeedList(spec.Screen.SeedPairs)
		pinned := spec
		pinned.Screen = &trigene.ScreenSpec{Survivors: survivors, Seeds: seeds}
		next.spec = &pinned
		next.screen = &trigene.ScreenInfo{
			PairsScanned: merged.Pairs,
			Survivors:    len(survivors),
			SeedPairs:    len(seeds),
			Threshold:    threshold,
			Stage1Ns:     merged.DurationNs,
		}
		next.opened = now
		return nil, nil
	}
	return ph
}

// permPhase shards the permutation index range of a permutation test.
// Every range seeds its shuffles by absolute permutation index, so the
// merged hit counts (MergePerms) and the p-values FinalizePerms derives
// from them are bit-exact with a single-node run.
func permPhase(spec trigene.SearchSpec, count int) *phase {
	decode := func(raw json.RawMessage) (*trigene.PermScores, error) {
		var ps trigene.PermScores
		if err := json.Unmarshal(raw, &ps); err != nil {
			return nil, fmt.Errorf("decoding tile perm scores: %w", err)
		}
		if err := ps.ValidateShape(); err != nil {
			return nil, fmt.Errorf("invalid tile perm scores: %w", err)
		}
		if len(ps.SNPs) != len(spec.Perm.SNPs) {
			return nil, fmt.Errorf("tile perm scores cover %d candidates; the job tests %d", len(ps.SNPs), len(spec.Perm.SNPs))
		}
		return &ps, nil
	}
	ph := &phase{stage: stagePerm, base: 0, count: count, spec: &spec}
	ph.check = func(raw json.RawMessage) error { _, err := decode(raw); return err }
	ph.merge = func(payloads []json.RawMessage, _ time.Time) (*trigene.Report, error) {
		scores, err := decodeAll(payloads, decode)
		if err != nil {
			return nil, err
		}
		merged, err := trigene.MergePerms(scores...)
		if err != nil {
			return nil, fmt.Errorf("merging permutation ranges: %w", err)
		}
		rep, err := trigene.FinalizePerms(spec.Perm, merged, count)
		if err != nil {
			return nil, fmt.Errorf("finalizing permutation test: %w", err)
		}
		return rep, nil
	}
	return ph
}
