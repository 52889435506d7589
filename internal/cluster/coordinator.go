package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"trigene"
	"trigene/internal/sched"
	"trigene/internal/store"
	"trigene/internal/wal"
)

// discardLogger is the default when no Logger is configured.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a granted tile stays covered without a
	// heartbeat renewal (default 15s). Workers renew at TTL/3, so the
	// TTL bounds how stale a dead worker's tile can get before
	// re-issue.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one tile is granted before the
	// job is declared failed — the brake against a tile that kills
	// every worker that touches it (default 5).
	MaxAttempts int
	// Retain is how many finished jobs (done, failed or cancelled) keep
	// their status and merged result before the oldest are evicted
	// (default 64).
	Retain int
	// Logger receives coordinator events as structured records; every
	// line carries the IDs it concerns (job, worker, tile) as
	// attributes. Default: discard.
	Logger *slog.Logger
	// Now supplies the clock (default time.Now); tests inject it.
	Now func() time.Time
	// StateDir is the durability root used by Recover: a write-ahead
	// journal plus snapshots under it make every acknowledged state
	// transition survive a coordinator crash. NewCoordinator ignores it
	// (in-memory coordinator); Recover requires it.
	StateDir string
	// SnapshotEvery is how many journal records accumulate before the
	// full state is compacted into a snapshot and the journal reset
	// (default 256). Only meaningful with StateDir.
	SnapshotEvery int
}

// Coordinator owns the job queue and the lease book of a cluster. It
// is an http.Handler serving the /v1 wire contract. State lives in
// memory; a Coordinator built by Recover additionally journals every
// state transition to a write-ahead log (see durable.go), so a
// restart replays to exactly the acknowledged state.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order; finished jobs stay until evicted
	seq     int
	workers map[string]*workerInfo

	// log is the write-ahead journal (nil for an in-memory
	// coordinator); replaying suppresses journaling while recovery
	// re-applies the log to itself.
	log       *wal.Log
	replaying bool

	// cm holds the metric hooks installed by Instrument (zero value:
	// every hook is a no-op).
	cm coordMetrics
}

// workerInfo is one worker's capability record, built from its lease
// requests (registration) and heartbeats.
type workerInfo struct {
	id          string
	capacity    float64 // advertised relative weight (default 1)
	tilesPerSec float64 // worker-measured throughput (0 = none yet)
	granted     int
	completed   int
	lastSeen    time.Time
	draining    bool // announced drain: no new leases for this worker
}

// maxLeaseBatch caps how many tiles one grant bundles: enough for a
// fast worker to stay busy between round trips, small enough that a
// dead worker's batch re-issues quickly.
const maxLeaseBatch = 4

// workerRetention bounds the capability registry: a worker unseen
// this long is deleted (worker IDs default to host:pid, so restarts
// mint new entries; without eviction a long-lived coordinator leaks).
const workerRetention = time.Hour

// staleAfter is how long a silent worker keeps influencing weighted
// lease sizing. A live worker is never silent this long: it polls
// every Poll while idle and heartbeats at TTL/3 while computing.
func (c *Coordinator) staleAfter() time.Duration {
	return 4 * c.cfg.LeaseTTL
}

// weight returns the worker's lease weight in the given currency.
func (w *workerInfo) weight(measured bool) float64 {
	if measured {
		return w.tilesPerSec
	}
	return w.capacity
}

// job is the coordinator-side state of one submission: a lease-unit
// space cut into phases (see phase.go), with one payload slot per unit.
type job struct {
	id, name string
	spec     trigene.SearchSpec // as submitted
	tiles    int                // lease units across every phase
	state    string
	err      string

	dataset       []byte // packed .tpack bytes; released when the job leaves StateRunning
	datasetSHA    string // dataset content hash (Session.DatasetHash)
	snps, samples int

	leases   *sched.LeaseTable
	phases   []*phase
	payloads []json.RawMessage  // one slot per unit, filled when the unit completes
	grantee  map[int]granteeRef // tile -> holder of its current lease
	result   *trigene.Report

	submitted time.Time
	finished  time.Time
}

// newJob builds a running job from its submit record (live submissions
// and journal replay share it, so both cut the same phases).
func newJob(rec walRecord) *job {
	var spec trigene.SearchSpec
	if rec.Spec != nil {
		spec = *rec.Spec
	}
	return &job{
		id:         rec.Job,
		name:       rec.Name,
		spec:       spec,
		tiles:      rec.Tiles,
		state:      StateRunning,
		datasetSHA: rec.SHA,
		snps:       rec.SNPs,
		samples:    rec.Samples,
		leases:     sched.NewLeaseTable(rec.Tiles),
		phases:     newPhases(spec, rec.SNPs, rec.ScreenTiles, rec.Tiles),
		payloads:   make([]json.RawMessage, rec.Tiles),
		grantee:    make(map[int]granteeRef),
		submitted:  time.Unix(0, rec.UnixNs),
	}
}

// screenTiles counts the units ahead of the job's last phase: a
// screened job's stage-1 shards, 0 for single-phase jobs.
func (j *job) screenTiles() int { return j.phases[len(j.phases)-1].base }

// phaseOf returns the phase owning lease unit u (nil when out of range).
func (j *job) phaseOf(u int) *phase {
	for _, ph := range j.phases {
		if u >= ph.base && u < ph.base+ph.count {
			return ph
		}
	}
	return nil
}

// grantLimit is the end of the last phase whose spec is pinned: units
// past it wait for the previous phase's merge. A phase is pinned only
// once every unit before it completed, so a batch never mixes phases.
func (j *job) grantLimit() int {
	limit := 0
	for _, ph := range j.phases {
		if ph.spec == nil {
			break
		}
		limit = ph.base + ph.count
	}
	return limit
}

// restore marks unit u done with its recorded payload — unless the
// payload is missing or fails its phase's check (a record written by an
// older coordinator, or a damaged one), in which case the unit stays
// not done and re-issues: a unit counts only with a payload its merge
// can use. Journal replay and snapshot import both restore through it.
func (j *job) restore(u int, raw json.RawMessage) error {
	ph := j.phaseOf(u)
	if ph == nil {
		return fmt.Errorf("unit %d outside the job's %d", u, j.tiles)
	}
	if err := ph.check(raw); err != nil {
		return err
	}
	j.leases.RestoreDone(u)
	j.payloads[u] = raw
	return nil
}

// release moves the job out of StateRunning and drops what only a
// running job needs. Live finishes and replayed finish records share it.
func (j *job) release(state, errMsg string, at time.Time) {
	j.state = state
	j.err = errMsg
	j.finished = at
	j.dataset = nil
	j.payloads = nil
	j.grantee = nil
}

// granteeRef names the holder of one tile's current lease — worker ID
// for accounting, grant seq so a draining worker's leases can be
// released under exactly the coordinates it holds.
type granteeRef struct {
	worker string
	seq    uint64
}

// NewCoordinator returns a Coordinator serving the /v1 wire contract.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		workers: make(map[string]*workerInfo),
		mux:     http.NewServeMux(),
	}
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/workers/{id}/drain", c.handleDrain)
	c.mux.HandleFunc("POST /v1/workers/{id}/leave", c.handleLeave)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/dataset", c.handleDataset)
	c.mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	c.mux.HandleFunc("POST /v1/jobs/{id}/cancel", c.handleCancel)
	c.mux.HandleFunc("POST /v1/lease", c.handleLease)
	c.mux.HandleFunc("POST /v1/lease/{token}/renew", c.handleRenew)
	c.mux.HandleFunc("POST /v1/lease/{token}/done", c.handleComplete)
	c.mux.HandleFunc("POST /v1/lease/{token}/fail", c.handleFail)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// LeaseTTL returns the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding submit request: %v", err)
		return
	}
	if req.Tiles < 1 {
		writeErr(w, http.StatusBadRequest, "tiles must be ≥ 1, got %d", req.Tiles)
		return
	}
	// Fail configuration and dataset errors at the door, not on the
	// first worker.
	if _, err := req.Spec.Options(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	if req.Spec.MaxWorkers < 0 || req.Spec.DeadlineMillis < 0 {
		writeErr(w, http.StatusBadRequest, "invalid spec: maxWorkers and deadlineMillis must be ≥ 0")
		return
	}
	if req.ScreenTiles < 0 {
		writeErr(w, http.StatusBadRequest, "screenTiles must be ≥ 0, got %d", req.ScreenTiles)
		return
	}
	// Accept the dataset as trigene binary or pre-encoded .tpack, and
	// hold (and serve) it packed either way: the coordinator encodes a
	// binary submission exactly once, so every worker that fetches the
	// job starts from the shared encodings instead of re-binarizing.
	var sess *trigene.Session
	var packed []byte
	if store.IsPack(req.Dataset) {
		s, err := trigene.ReadPack(bytes.NewReader(req.Dataset))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid dataset: %v", err)
			return
		}
		sess, packed = s, req.Dataset
	} else {
		mx, err := trigene.ReadBinary(bytes.NewReader(req.Dataset))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid dataset: %v", err)
			return
		}
		s, err := trigene.NewSession(mx)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid dataset: %v", err)
			return
		}
		var buf bytes.Buffer
		if err := s.WritePack(&buf); err != nil {
			writeErr(w, http.StatusInternalServerError, "packing dataset: %v", err)
			return
		}
		sess, packed = s, buf.Bytes()
	}

	// Permutation submissions are validated loudly at the door: the
	// candidates against the dataset, and the search-shaping fields —
	// which a permutation job cannot honor — rejected rather than
	// silently ignored. Tiles shard the permutation index range, so
	// there must be at least one permutation per tile.
	if pm := req.Spec.Perm; pm != nil {
		if err := pm.Validate(sess.SNPs()); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
		if req.Spec.Screen != nil || req.Spec.AutoTune || req.Spec.EnergyBudgetWatts > 0 ||
			req.Spec.Approach != "" || req.Spec.Order != 0 || req.Spec.TopK > 1 {
			writeErr(w, http.StatusBadRequest,
				"invalid spec: permutation jobs do not combine with screen/autoTune/approach/order/topK")
			return
		}
		if perms := pm.PermutationCount(); req.Tiles > perms {
			writeErr(w, http.StatusBadRequest,
				"tiles (%d) must not exceed the permutation count (%d)", req.Tiles, perms)
			return
		}
	}

	// Screened submissions are validated loudly at the door — negative
	// budgets, survivors exceeding the dataset's SNP count, malformed
	// seeds — and sized as two phases: screenTiles stage-1 pair-scan
	// shards ahead of the req.Tiles stage-2 search tiles. A spec with
	// pinned survivors skips the stage-1 phase (each tile runs the
	// pinned screened search directly).
	screenTiles := 0
	if sc := req.Spec.Screen; sc != nil {
		if err := sc.Validate(sess.SNPs()); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid spec: %v", err)
			return
		}
		if len(sc.Survivors) == 0 {
			if sc.MaxSurvivors == 0 {
				writeErr(w, http.StatusBadRequest,
					"invalid spec: cluster screens need an explicit survivor budget (maxSurvivors); the planner's time budget is a single-host notion")
				return
			}
			screenTiles = req.ScreenTiles
			if screenTiles == 0 {
				screenTiles = req.Tiles
			}
		}
	}

	c.mu.Lock()
	c.seq++
	rec := walRecord{T: recSubmit, Job: "j" + strconv.Itoa(c.seq), Name: req.Name, Spec: &req.Spec,
		Tiles: req.Tiles + screenTiles, ScreenTiles: screenTiles,
		SHA: sess.DatasetHash(), SNPs: sess.SNPs(), Samples: sess.Samples(),
		UnixNs: c.cfg.Now().UnixNano()}
	j := newJob(rec)
	j.dataset = packed
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	// The submission must be durable before it is acknowledged: the
	// dataset goes to the pack store and the submit record is fsynced.
	// On failure the job is rolled back — an unacknowledged submission
	// must not run.
	if err := c.journalSubmitLocked(rec, packed); err != nil {
		delete(c.jobs, j.id)
		c.order = c.order[:len(c.order)-1]
		c.seq--
		c.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "journaling submission: %v", err)
		return
	}
	c.mu.Unlock()
	c.cm.submitted.Inc()
	c.cfg.Logger.Info("job submitted",
		"job", j.id, "name", j.name, "tiles", j.tiles,
		"snps", j.snps, "samples", j.samples, "backend", req.Spec.Backend)
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: j.id, Tiles: j.tiles})
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	// Deadlines are enforced lazily, on observation; iterate a copy
	// because a tripped deadline can evict finished jobs from c.order.
	order := append([]string(nil), c.order...)
	list := JobList{Jobs: make([]JobStatus, 0, len(order))}
	for _, id := range order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		c.enforceDeadlineLocked(j, now)
	}
	for _, id := range c.order {
		list.Jobs = append(list.Jobs, c.jobs[id].status(now))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	if !ok {
		c.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	c.enforceDeadlineLocked(j, now)
	st := j.status(now)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleDataset(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var data []byte
	if ok {
		data = j.dataset
	}
	c.mu.Unlock()
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case data == nil:
		writeErr(w, http.StatusGone, "job %s is finished; its dataset is released", r.PathValue("id"))
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		st = j.status(c.cfg.Now())
	}
	result := (*trigene.Report)(nil)
	if ok {
		result = j.result
	}
	c.mu.Unlock()
	switch {
	case !ok:
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case st.State == StateRunning:
		writeErr(w, http.StatusConflict, "job %s still running: %d/%d tiles done", st.ID, st.Done, st.Tiles)
	case result == nil:
		writeErr(w, http.StatusGone, "job %s %s: %s", st.ID, st.State, st.Error)
	default:
		writeJSON(w, http.StatusOK, result)
	}
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	if ok && j.state == StateRunning {
		c.finishLocked(j, StateCancelled, "cancelled by request")
		if err := c.commitLocked(); err != nil {
			c.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "journaling cancel: %v", err)
			return
		}
	}
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touchWorkerLocked(req.Worker, now)
	if req.Capacity > 0 {
		wi.capacity = req.Capacity
	}
	if req.TilesPerSec > 0 {
		wi.tilesPerSec = req.TilesPerSec
	}
	if wi.draining {
		// A draining worker is finishing what it holds; granting it
		// more would delay both the drain and the tiles.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	batch := c.leaseBatchLocked(wi, now)
	// First running job (submission order) with an available tile: a
	// FIFO queue in which later jobs still progress once earlier ones
	// are fully leased. A batch never spans jobs. Iterate a copy: a
	// tripped deadline can evict finished jobs from c.order.
	for _, id := range append([]string(nil), c.order...) {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		c.enforceDeadlineLocked(j, now)
		if j.state != StateRunning {
			continue
		}
		if !c.underWorkerCapLocked(j, req.Worker, now) {
			continue
		}
		var grants []sched.TileLease
		failed := false
		limit := j.grantLimit()
		for len(grants) < batch {
			l, ok := j.leases.AcquireBelow(now, c.cfg.LeaseTTL, limit)
			if !ok {
				break
			}
			if l.Attempt > c.cfg.MaxAttempts {
				c.cfg.Logger.Error("tile exhausted its attempts; failing the job",
					"job", j.id, "tile", l.Tile, "maxAttempts", c.cfg.MaxAttempts)
				c.finishLocked(j, StateFailed,
					fmt.Sprintf("tile %d of %d was re-issued %d times without completing", l.Tile, j.tiles, c.cfg.MaxAttempts))
				failed = true
				break
			}
			if l.Attempt > 1 {
				c.cm.reissued.Inc()
				c.cfg.Logger.Warn("re-issuing tile",
					"job", j.id, "tile", l.Tile, "attempt", l.Attempt, "worker", req.Worker)
			}
			grants = append(grants, l)
		}
		if failed || len(grants) == 0 {
			continue
		}
		granted := make([]TileGrant, len(grants))
		for i, l := range grants {
			granted[i] = TileGrant{Token: leaseToken(j.id, l), Tile: l.Tile}
			j.grantee[l.Tile] = granteeRef{worker: req.Worker, seq: l.Seq}
			// Grants are journaled without an fsync: losing one in a
			// crash is benign (the restored table's seq counter stays
			// below the lost grant, so its holder's completion answers
			// Unknown and the tile simply re-issues), and keeping the
			// grant path buffer-only keeps lease throughput at
			// in-memory speed.
			c.journalLocked(walRecord{T: recGrant, Job: j.id, Tile: l.Tile,
				Seq: l.Seq, Attempt: l.Attempt, Worker: req.Worker,
				UnixNs: now.Add(c.cfg.LeaseTTL).UnixNano()})
		}
		wi.granted += len(grants)
		c.cm.leasesGranted.Add(int64(len(grants)))
		if len(grants) > 1 {
			c.cfg.Logger.Debug("weighted tile batch granted",
				"job", j.id, "tiles", len(grants), "worker", req.Worker)
		}
		ph := j.phaseOf(granted[0].Tile)
		resp := LeaseGrant{
			Token:         granted[0].Token,
			Job:           j.id,
			DatasetSHA256: j.datasetSHA,
			Spec:          *ph.spec,
			Tile:          granted[0].Tile,
			Tiles:         j.tiles,
			Stage:         ph.stage,
			StageBase:     ph.base,
			StageCount:    ph.count,
			Granted:       granted,
			TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// touchWorkerLocked returns (creating if needed) the worker's
// capability record, stamps its last-seen instant, and evicts
// registry entries past retention.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	for oid, o := range c.workers {
		if now.Sub(o.lastSeen) > workerRetention {
			delete(c.workers, oid)
		}
	}
	wi := c.workers[id]
	if wi == nil {
		wi = &workerInfo{id: id, capacity: 1}
		c.workers[id] = wi
	}
	wi.lastSeen = now
	return wi
}

// leaseBatchLocked sizes this worker's next grant: its weight over the
// slowest live worker's, so fast workers get proportionally bigger
// batches. Weights compare measured tiles/sec once every live worker
// has reported one, and advertised capacities until then — never a
// mix of the two currencies. Workers silent past the staleness window
// neither anchor the base nor block the measured currency: a dead
// slow worker must not leave the survivors over-batched forever.
func (c *Coordinator) leaseBatchLocked(wi *workerInfo, now time.Time) int {
	stale := c.staleAfter()
	measured := true
	for _, o := range c.workers {
		if now.Sub(o.lastSeen) > stale {
			continue
		}
		if o.tilesPerSec <= 0 {
			measured = false
			break
		}
	}
	weight := wi.weight(measured)
	base := weight
	for _, o := range c.workers {
		if now.Sub(o.lastSeen) > stale {
			continue
		}
		if ow := o.weight(measured); ow > 0 && ow < base {
			base = ow
		}
	}
	if weight <= 0 || base <= 0 {
		return 1
	}
	n := int(weight/base + 0.5)
	if n < 1 {
		n = 1
	}
	if n > maxLeaseBatch {
		n = maxLeaseBatch
	}
	return n
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.Now()
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	list := WorkerList{Workers: make([]WorkerStatus, 0, len(ids))}
	for _, id := range ids {
		wi := c.workers[id]
		list.Workers = append(list.Workers, WorkerStatus{
			ID:             wi.id,
			Capacity:       wi.capacity,
			TilesPerSec:    wi.tilesPerSec,
			Granted:        wi.granted,
			Completed:      wi.completed,
			LastSeenUnixMs: wi.lastSeen.UnixMilli(),
			AgeMs:          now.Sub(wi.lastSeen).Milliseconds(),
			Stale:          now.Sub(wi.lastSeen) > c.staleAfter(),
			Draining:       wi.draining,
		})
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

// handleDrain marks a worker as draining: it keeps (and finishes) the
// leases it holds, but is granted nothing new. Workers announce their
// own drain on SIGTERM; operators may also call it directly.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	wi := c.touchWorkerLocked(id, now)
	wi.draining = true
	c.mu.Unlock()
	c.cfg.Logger.Info("worker draining", "worker", id)
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleLeave deregisters a worker and releases every lease it still
// holds, so its tiles re-issue on the next lease request instead of
// idling until TTL expiry. The releases are journaled and fsynced
// before the worker is told it may exit.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := c.cfg.Now()
	c.mu.Lock()
	released := c.releaseWorkerLeasesLocked(id, now)
	delete(c.workers, id)
	err := c.commitLocked()
	c.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "journaling leave: %v", err)
		return
	}
	c.cfg.Logger.Info("worker left; leases released for immediate re-issue",
		"worker", id, "released", released)
	writeJSON(w, http.StatusOK, LeaveResponse{Released: released})
}

// releaseWorkerLeasesLocked frees every live lease the worker holds
// across all running jobs, journaling each release.
func (c *Coordinator) releaseWorkerLeasesLocked(worker string, now time.Time) int {
	released := 0
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != StateRunning {
			continue
		}
		for tile, g := range j.grantee {
			if g.worker != worker {
				continue
			}
			if j.leases.Release(tile, g.seq) {
				delete(j.grantee, tile)
				c.journalLocked(walRecord{T: recRelease, Job: j.id, Tile: tile, Seq: g.seq})
				c.cm.released.Inc()
				released++
			}
		}
	}
	return released
}

// underWorkerCapLocked enforces a job's MaxWorkers policy: when set,
// only workers already holding a live lease on the job may take more
// tiles once the cap many distinct holders exist.
func (c *Coordinator) underWorkerCapLocked(j *job, worker string, now time.Time) bool {
	if j.spec.MaxWorkers <= 0 {
		return true
	}
	holders := make(map[string]bool)
	for _, tile := range j.leases.Leased(now) {
		if g, ok := j.grantee[tile]; ok {
			holders[g.worker] = true
		}
	}
	return holders[worker] || len(holders) < j.spec.MaxWorkers
}

// enforceDeadlineLocked fails a running job whose wall-clock budget
// (SearchSpec.DeadlineMillis, measured from submission) has elapsed.
// Deadlines are checked on observation — lease, renew, complete,
// status — not by a timer, which keeps expiry deterministic under
// injected clocks and replays identically after recovery (the
// submission instant is durable).
func (c *Coordinator) enforceDeadlineLocked(j *job, now time.Time) {
	if j.state != StateRunning || j.spec.DeadlineMillis <= 0 {
		return
	}
	budget := time.Duration(j.spec.DeadlineMillis) * time.Millisecond
	if now.Sub(j.submitted) >= budget {
		c.cfg.Logger.Warn("job deadline exceeded", "job", j.id, "budget", budget)
		c.finishLocked(j, StateFailed,
			fmt.Sprintf("deadline of %dms exceeded with %d/%d tiles done", j.spec.DeadlineMillis, j.leases.Done(), j.tiles))
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	jobID, tile, seq, err := parseLeaseToken(r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Heartbeats double as capability reports; the body is optional.
	var req RenewRequest
	json.NewDecoder(r.Body).Decode(&req)
	now := c.cfg.Now()
	c.mu.Lock()
	if req.Worker != "" {
		wi := c.touchWorkerLocked(req.Worker, now)
		if req.TilesPerSec > 0 {
			wi.tilesPerSec = req.TilesPerSec
		}
	}
	j, ok := c.jobs[jobID]
	if ok {
		c.enforceDeadlineLocked(j, now)
	}
	renewed := ok && j.state == StateRunning && j.leases.Renew(tile, seq, now, c.cfg.LeaseTTL)
	c.mu.Unlock()
	if !renewed {
		if ok {
			c.cm.leasesExpired.Inc()
		}
		writeErr(w, http.StatusGone, "lease %s is no longer current", r.PathValue("token"))
		return
	}
	c.cm.leasesRenewed.Inc()
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	jobID, tile, seq, err := parseLeaseToken(r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}

	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if ok {
		c.enforceDeadlineLocked(j, now)
	}
	if !ok || j.state != StateRunning {
		writeErr(w, http.StatusGone, "job %s is not running", jobID)
		return
	}
	// Check the payload before touching the lease table, so a malformed
	// body never marks a tile done. Only the tile's live lease is
	// checked: a stale or duplicate completion is discarded below
	// whatever it carries.
	if j.leases.Current(tile, seq) {
		if err := j.phaseOf(tile).check(req.Payload); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid payload for tile %d: %v", tile, err)
			return
		}
	}
	switch st := j.leases.Complete(tile, seq); st {
	case sched.CompleteAccepted:
		j.payloads[tile] = req.Payload
		if wi := c.workers[j.grantee[tile].worker]; wi != nil {
			wi.completed++
		}
		// The completion — and, when it closed the job, the finish
		// record settleLocked appends — must be durable before the
		// worker is told its result counted, or a crash would lose an
		// acknowledged tile and re-execute it.
		c.journalLocked(walRecord{T: recComplete, Job: j.id, Tile: tile, Seq: seq, Payload: req.Payload})
		c.settleLocked(j)
		if err := c.commitLocked(); err != nil {
			writeErr(w, http.StatusInternalServerError, "journaling completion: %v", err)
			return
		}
		c.cm.completed.Inc()
		writeJSON(w, http.StatusOK, CompleteResponse{Accepted: true})
	case sched.CompleteDuplicate, sched.CompleteStale:
		// Exactly-once accounting: the tile's first result already
		// counted (or a re-issued lease owns it); this one is discarded.
		c.cm.discarded.Inc()
		c.cfg.Logger.Debug("discarding completion",
			"job", jobID, "tile", tile, "status", st.String())
		writeJSON(w, http.StatusOK, CompleteResponse{Accepted: false})
	default:
		writeErr(w, http.StatusGone, "lease %s was never granted", r.PathValue("token"))
	}
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	jobID, tile, seq, err := parseLeaseToken(r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding failure: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok || j.state != StateRunning {
		writeErr(w, http.StatusGone, "job %s is not running", jobID)
		return
	}
	// Only the tile's live lease may fail the job: a superseded holder
	// (its tile was re-issued, possibly to a worker that handles the
	// spec fine) must not kill everyone else's work.
	if !j.leases.Current(tile, seq) {
		writeErr(w, http.StatusGone, "lease %s is no longer current", r.PathValue("token"))
		return
	}
	c.cfg.Logger.Error("tile failed deterministically",
		"job", jobID, "tile", tile, "error", req.Error)
	c.finishLocked(j, StateFailed, fmt.Sprintf("tile %d: %s", tile, req.Error))
	if err := c.commitLocked(); err != nil {
		writeErr(w, http.StatusInternalServerError, "journaling failure: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// settleLocked runs, in phase order, the merge of every phase whose
// units all completed and whose merge has not run yet: a merged phase
// pins the next one, and the last phase's merge finishes the job with
// its Report. The completion path and recovery both call it, so a
// recovered job re-pins and merges exactly as the uninterrupted run
// did. A merge error fails the job: re-running the tiles would
// reproduce it.
func (c *Coordinator) settleLocked(j *job) {
	for i, ph := range j.phases {
		end := ph.base + ph.count
		if j.state != StateRunning || ph.spec == nil || j.leases.DoneBelow(end) < end {
			return
		}
		if i+1 < len(j.phases) && j.phases[i+1].spec != nil {
			continue
		}
		rep, err := ph.merge(j.payloads[ph.base:end], c.cfg.Now())
		switch {
		case err != nil:
			c.finishLocked(j, StateFailed, err.Error())
		case rep != nil:
			j.result = rep
			c.finishLocked(j, StateDone, "")
			c.cfg.Logger.Info("job done", "job", j.id, "tiles", j.tiles)
		default:
			c.cfg.Logger.Info("phase merged; next phase opened", "job", j.id, "stage", ph.stage)
		}
	}
}

// finishLocked moves a job out of StateRunning: records the outcome,
// releases the dataset, kills future lease traffic (renew/complete on
// a finished job answer 410 Gone) and evicts the oldest finished jobs
// beyond the retention cap.
func (c *Coordinator) finishLocked(j *job, state, errMsg string) {
	c.cm.finishCount(state)
	j.release(state, errMsg, c.cfg.Now())
	c.journalFinishLocked(j)
	c.evictFinishedLocked()
}

// evictFinishedLocked drops the oldest finished jobs beyond the
// retention cap. It is shared by the live path (finishLocked) and
// journal replay, so eviction reproduces identically on recovery.
func (c *Coordinator) evictFinishedLocked() {
	finished := 0
	for _, id := range c.order {
		if c.jobs[id].state != StateRunning {
			finished++
		}
	}
	for i := 0; finished > c.cfg.Retain && i < len(c.order); {
		id := c.order[i]
		if c.jobs[id].state == StateRunning {
			i++
			continue
		}
		delete(c.jobs, id)
		c.order = append(c.order[:i], c.order[i+1:]...)
		finished--
	}
}

// status snapshots a job (caller holds c.mu).
func (j *job) status(now time.Time) JobStatus {
	st := JobStatus{
		ID:              j.id,
		Name:            j.name,
		State:           j.state,
		Spec:            j.spec,
		SNPs:            j.snps,
		Samples:         j.samples,
		Tiles:           j.tiles,
		Done:            j.leases.Done(),
		Leased:          j.leases.Outstanding(now),
		Error:           j.err,
		SubmittedUnixMs: j.submitted.UnixMilli(),
	}
	if n := j.screenTiles(); n > 0 {
		st.ScreenTiles = n
		st.ScreenDone = j.leases.DoneBelow(n)
	}
	if !j.finished.IsZero() {
		st.DurationMs = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}

// leaseToken encodes a granted lease as "job.tile.seq" — opaque to
// workers, self-describing to the coordinator (no token table to leak).
func leaseToken(jobID string, l sched.TileLease) string {
	return jobID + "." + strconv.Itoa(l.Tile) + "." + strconv.FormatUint(l.Seq, 10)
}

// parseLeaseToken is the inverse of leaseToken.
func parseLeaseToken(tok string) (jobID string, tile int, seq uint64, err error) {
	parts := strings.Split(tok, ".")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	tile, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	seq, err = strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("malformed lease token %q", tok)
	}
	return parts[0], tile, seq, nil
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes the uniform JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
