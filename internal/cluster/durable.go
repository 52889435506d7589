// Durable coordinator state: a write-ahead journal plus snapshots
// (internal/wal) under Config.StateDir make every acknowledged state
// transition of the Coordinator survive a crash.
//
// The journal records the coordinator's state machine, not its bytes:
// one JSON record per transition — submit, grant, complete, release,
// finish — replayed in order on top of the latest snapshot. Datasets
// are deliberately kept out of the journal; they are content-addressed
// files under StateDir/packs/<sha256>.tpack, written (and fsynced)
// before the submit record that references them, and garbage-collected
// on recovery once no running job needs them.
//
// Durability policy is sync-on-ack: transitions a client builds on
// (submit accepted, tile result counted, job finished, worker released)
// are fsynced before the response; lease grants are journaled through
// the buffer only, because losing a grant is benign — the restored
// sequence counter stays below the lost grant's, so its holder's
// completion answers Unknown, the worker abandons the tile, and the
// tile re-issues. That asymmetry keeps the grant path at in-memory
// speed (see the durable benchsuite experiment's regression gate).
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"trigene"
	"trigene/internal/sched"
	"trigene/internal/wal"
)

// Journal record types (walRecord.T).
const (
	recSubmit   = "submit"
	recGrant    = "grant"
	recComplete = "complete"
	recRelease  = "release"
	recFinish   = "finish"
)

// walRecord is one journaled state transition. T selects the type;
// the other fields are per-type (UnixNs is the submission instant of
// a submit, the lease deadline of a grant, the finish instant of a
// finish).
type walRecord struct {
	T   string `json:"t"`
	Job string `json:"job,omitempty"`

	// submit
	Name        string              `json:"name,omitempty"`
	Spec        *trigene.SearchSpec `json:"spec,omitempty"`
	Tiles       int                 `json:"tiles,omitempty"`
	ScreenTiles int                 `json:"screenTiles,omitempty"`
	SHA         string              `json:"sha,omitempty"`
	SNPs        int                 `json:"snps,omitempty"`
	Samples     int                 `json:"samples,omitempty"`

	// grant / complete / release
	Tile    int    `json:"tile,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`

	// complete: the tile's payload, as its phase checked it. What a
	// phase's merge pins into the next phase is deliberately not
	// journaled — recovery re-runs the merge on the replayed payloads.
	Payload json.RawMessage `json:"payload,omitempty"`

	// finish
	State  string          `json:"state,omitempty"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	UnixNs int64 `json:"ns,omitempty"`
}

// walSnapshot is the full coordinator state a snapshot compacts the
// journal into. The worker capability registry is deliberately absent:
// it is a cache rebuilt from the first post-restart lease requests and
// heartbeats.
type walSnapshot struct {
	Seq  int      `json:"seq"`
	Jobs []walJob `json:"jobs"` // submission order
}

// walJob is one job's snapshot state.
type walJob struct {
	ID              string             `json:"id"`
	Name            string             `json:"name,omitempty"`
	Spec            trigene.SearchSpec `json:"spec"`
	Tiles           int                `json:"tiles"`
	State           string             `json:"state"`
	Err             string             `json:"err,omitempty"`
	SHA             string             `json:"sha,omitempty"`
	SNPs            int                `json:"snps,omitempty"`
	Samples         int                `json:"samples,omitempty"`
	LeaseSeq        uint64             `json:"leaseSeq,omitempty"`
	TileStates      []sched.TileState  `json:"tileStates,omitempty"`
	Grantees        []walGrantee       `json:"grantees,omitempty"`
	ScreenTiles     int                `json:"screenTiles,omitempty"`
	Payloads        []json.RawMessage  `json:"payloads,omitempty"`
	Result          json.RawMessage    `json:"result,omitempty"`
	SubmittedUnixNs int64              `json:"sub"`
	FinishedUnixNs  int64              `json:"fin,omitempty"`
}

// walGrantee is one tile's lease holder in a snapshot.
type walGrantee struct {
	Tile   int    `json:"tile"`
	Worker string `json:"worker"`
	Seq    uint64 `json:"seq"`
}

// Recover opens (creating if empty) the durable state under
// cfg.StateDir and returns a Coordinator journaling to it, with every
// job the journal records rebuilt: finished jobs keep their merged
// results, running jobs keep their queue position, completed tiles and
// restored leases — a worker that survived the coordinator crash can
// renew and complete under its pre-crash tokens, and a dead worker's
// tiles re-issue when their restored deadlines pass. A job whose last
// tile completed but whose finish record was lost with the crash is
// merged during recovery, so its result is bit-exact with the
// uninterrupted run.
func Recover(cfg Config) (*Coordinator, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("cluster: Recover requires Config.StateDir")
	}
	c := NewCoordinator(cfg)
	l, err := wal.Open(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	c.log = l
	c.mu.Lock()
	err = c.recoverLocked()
	c.mu.Unlock()
	if err != nil {
		l.Close()
		return nil, err
	}
	return c, nil
}

// Close flushes and closes the journal; the coordinator must not
// serve requests afterwards. It is a no-op for in-memory coordinators.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// recoverLocked rebuilds the coordinator from the opened log:
// snapshot, then journal replay, then the fixups replay cannot express
// as records — reloading running jobs' datasets from the pack store,
// merging jobs whose finish record the crash swallowed, and collecting
// packs no running job references. Ends by compacting the recovered
// state into a fresh snapshot, so journals stay bounded across
// repeated restarts.
func (c *Coordinator) recoverLocked() error {
	c.replaying = true
	if snap := c.log.Snapshot(); len(snap) > 0 {
		if err := c.importSnapshotLocked(snap); err != nil {
			c.replaying = false
			return err
		}
	}
	replayed := len(c.log.Records())
	for _, raw := range c.log.Records() {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// Records are CRC-framed, so this is a version mismatch,
			// not corruption; skipping one transition beats refusing
			// every job in the log.
			c.cfg.Logger.Warn("wal: skipping undecodable record", "error", err)
			continue
		}
		c.applyLocked(rec)
	}
	c.replaying = false

	running := 0
	for _, id := range append([]string(nil), c.order...) {
		j := c.jobs[id]
		if j == nil || j.state != StateRunning {
			continue
		}
		// Merges the crash swallowed (a phase's last completion landed
		// but its pin, or the job's finish record, did not): merges are
		// deterministic given the payloads, so this reproduces the
		// uninterrupted run.
		c.settleLocked(j)
		if j.state != StateRunning {
			continue
		}
		data, err := os.ReadFile(c.packPath(j.datasetSHA))
		if err != nil {
			c.cfg.Logger.Error("dataset pack lost after recovery", "job", j.id, "error", err)
			c.finishLocked(j, StateFailed, fmt.Sprintf("dataset missing after recovery: %v", err))
			continue
		}
		j.dataset = data
		running++
	}
	c.gcPacksLocked()
	if replayed > 0 {
		if err := c.snapshotLocked(); err != nil {
			return err
		}
	}
	if err := c.commitLocked(); err != nil {
		return err
	}
	c.cfg.Logger.Info("recovered durable state",
		"jobs", len(c.order), "running", running, "stateDir", c.cfg.StateDir)
	return nil
}

// applyLocked replays one journal record onto the in-memory state.
// Every case tolerates records referencing jobs that later finished
// and were evicted (their submit replays, their finish evicts again).
func (c *Coordinator) applyLocked(rec walRecord) {
	switch rec.T {
	case recSubmit:
		j := newJob(rec)
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		// Job IDs are "j<n>"; the counter resumes past every replayed
		// ID so restarts never mint an ID a worker may still hold.
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "j")); err == nil && n > c.seq {
			c.seq = n
		}
	case recGrant:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		j.leases.RestoreGrant(rec.Tile, rec.Seq, rec.Attempt, time.Unix(0, rec.UnixNs))
		j.grantee[rec.Tile] = granteeRef{worker: rec.Worker, seq: rec.Seq}
	case recComplete:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		if err := j.restore(rec.Tile, rec.Payload); err != nil {
			c.cfg.Logger.Warn("wal: completed tile restored as not done",
				"job", rec.Job, "tile", rec.Tile, "error", err)
		}
	case recRelease:
		j := c.jobs[rec.Job]
		if j == nil || j.state != StateRunning {
			return
		}
		if j.leases.Release(rec.Tile, rec.Seq) {
			delete(j.grantee, rec.Tile)
		}
	case recFinish:
		j := c.jobs[rec.Job]
		if j == nil {
			return
		}
		j.release(rec.State, rec.Err, time.Unix(0, rec.UnixNs))
		if len(rec.Result) > 0 {
			var rep trigene.Report
			if err := json.Unmarshal(rec.Result, &rep); err == nil {
				j.result = &rep
			}
		}
		c.evictFinishedLocked()
	default:
		c.cfg.Logger.Warn("wal: skipping record of unknown type", "type", rec.T)
	}
}

// importSnapshotLocked rebuilds jobs from a compacted snapshot.
func (c *Coordinator) importSnapshotLocked(data []byte) error {
	var snap walSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("cluster: decoding snapshot: %w", err)
	}
	c.seq = snap.Seq
	for _, wj := range snap.Jobs {
		spec := wj.Spec
		j := newJob(walRecord{Job: wj.ID, Name: wj.Name, Spec: &spec, Tiles: wj.Tiles,
			ScreenTiles: wj.ScreenTiles, SHA: wj.SHA, SNPs: wj.SNPs, Samples: wj.Samples,
			UnixNs: wj.SubmittedUnixNs})
		for _, g := range wj.Grantees {
			j.grantee[g.Tile] = granteeRef{worker: g.Worker, seq: g.Seq}
		}
		if wj.TileStates != nil {
			var done []int
			if wj.State == StateRunning {
				// A running job's completed units count again only
				// through restore, which checks their payloads.
				for u := range wj.TileStates {
					if wj.TileStates[u].State == sched.TileStateDone {
						wj.TileStates[u].State = sched.TileStateFree
						done = append(done, u)
					}
				}
			}
			j.leases = sched.ImportLeaseTable(wj.LeaseSeq, wj.TileStates)
			for _, u := range done {
				var raw json.RawMessage
				if u < len(wj.Payloads) {
					raw = wj.Payloads[u]
				}
				if err := j.restore(u, raw); err != nil {
					c.cfg.Logger.Warn("snapshot: completed tile restored as not done",
						"job", j.id, "tile", u, "error", err)
				}
			}
		}
		if wj.State != StateRunning {
			j.release(wj.State, wj.Err, time.Unix(0, wj.FinishedUnixNs))
		}
		if len(wj.Result) > 0 {
			var rep trigene.Report
			if err := json.Unmarshal(wj.Result, &rep); err == nil {
				j.result = &rep
			}
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
	}
	return nil
}

// exportLocked snapshots the full coordinator state.
func (c *Coordinator) exportLocked() walSnapshot {
	snap := walSnapshot{Seq: c.seq, Jobs: make([]walJob, 0, len(c.order))}
	for _, id := range c.order {
		j := c.jobs[id]
		wj := walJob{
			ID:              j.id,
			Name:            j.name,
			Spec:            j.spec,
			Tiles:           j.tiles,
			State:           j.state,
			Err:             j.err,
			SHA:             j.datasetSHA,
			SNPs:            j.snps,
			Samples:         j.samples,
			ScreenTiles:     j.screenTiles(),
			Payloads:        j.payloads,
			SubmittedUnixNs: j.submitted.UnixNano(),
		}
		wj.LeaseSeq, wj.TileStates = j.leases.Export()
		if !j.finished.IsZero() {
			wj.FinishedUnixNs = j.finished.UnixNano()
		}
		if j.result != nil {
			wj.Result, _ = json.Marshal(j.result)
		}
		for tile, g := range j.grantee {
			wj.Grantees = append(wj.Grantees, walGrantee{Tile: tile, Worker: g.worker, Seq: g.seq})
		}
		sort.Slice(wj.Grantees, func(a, b int) bool { return wj.Grantees[a].Tile < wj.Grantees[b].Tile })
		snap.Jobs = append(snap.Jobs, wj)
	}
	return snap
}

// journalLocked appends one record to the journal buffer. It is a
// no-op for in-memory coordinators and during replay. Append errors
// are logged, not returned: the in-memory transition has already
// happened, and the callers that must not acknowledge un-durable
// state catch the problem in commitLocked.
func (c *Coordinator) journalLocked(rec walRecord) {
	if c.log == nil || c.replaying {
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = c.log.Append(raw)
	}
	if err != nil {
		c.cfg.Logger.Error("wal: journaling failed", "type", rec.T, "error", err)
	}
}

// commitLocked makes everything journaled so far durable (flush +
// fsync) and compacts the journal into a snapshot when it has grown
// past SnapshotEvery records. Handlers call it before acknowledging a
// transition a client builds on.
func (c *Coordinator) commitLocked() error {
	if c.log == nil {
		return nil
	}
	if err := c.log.Sync(); err != nil {
		return err
	}
	if c.log.AppendedSinceSnapshot() >= c.cfg.SnapshotEvery {
		if err := c.snapshotLocked(); err != nil {
			// The journal is intact and durable; a failed compaction
			// only costs replay time.
			c.cfg.Logger.Warn("wal: snapshot failed", "error", err)
		}
	}
	return nil
}

// snapshotLocked compacts the current state into a snapshot, resetting
// the journal.
func (c *Coordinator) snapshotLocked() error {
	state, err := json.Marshal(c.exportLocked())
	if err != nil {
		return fmt.Errorf("cluster: encoding snapshot: %w", err)
	}
	return c.log.WriteSnapshot(state)
}

// journalFinishLocked records a job leaving StateRunning, carrying the
// merged result for done jobs. Called from finishLocked, so every
// finish path — merge, deterministic failure, cancel, deadline,
// attempt exhaustion — journals identically.
func (c *Coordinator) journalFinishLocked(j *job) {
	if c.log == nil || c.replaying {
		return
	}
	rec := walRecord{T: recFinish, Job: j.id, State: j.state, Err: j.err, UnixNs: j.finished.UnixNano()}
	if j.result != nil {
		rec.Result, _ = json.Marshal(j.result)
	}
	c.journalLocked(rec)
}

// journalSubmitLocked persists a new job: the dataset into the pack
// store first, then the fsynced submit record referencing it — so a
// replayed submit always finds its pack.
func (c *Coordinator) journalSubmitLocked(rec walRecord, dataset []byte) error {
	if c.log == nil {
		return nil
	}
	if err := c.writePack(rec.SHA, dataset); err != nil {
		return err
	}
	c.journalLocked(rec)
	return c.commitLocked()
}

// packPath is where a dataset with the given content hash lives.
func (c *Coordinator) packPath(sha string) string {
	return filepath.Join(c.cfg.StateDir, "packs", sha+".tpack")
}

// writePack stores a dataset content-addressed (atomic rename, file
// and directory fsynced). An existing pack under the same hash is the
// same dataset; resubmissions cost nothing.
func (c *Coordinator) writePack(sha string, data []byte) error {
	path := c.packPath(sha)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, sha+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = fsyncDir(dir)
	}
	return err
}

// gcPacksLocked deletes packs no running job references — finished
// jobs released their datasets, so after recovery their packs are
// orphans.
func (c *Coordinator) gcPacksLocked() {
	dir := filepath.Join(c.cfg.StateDir, "packs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	needed := make(map[string]bool)
	for _, id := range c.order {
		if j := c.jobs[id]; j.state == StateRunning {
			needed[j.datasetSHA+".tpack"] = true
		}
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tpack") && !needed[e.Name()] {
			os.Remove(filepath.Join(dir, e.Name()))
			c.cfg.Logger.Info("pack store: collected orphan", "pack", e.Name())
		}
	}
}

// fsyncDir makes a rename inside dir durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
