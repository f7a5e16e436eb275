package gsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"gsv/internal/core"
	"gsv/internal/store"
	"gsv/internal/wal"
)

// This file wires the internal/wal durability layer into the facade.
// With WithDurability, every synced base update is appended to a
// checksummed write-ahead log before maintenance runs, and checkpoints
// periodically snapshot the whole store (base objects, view objects and
// delegates, counters) plus the view definitions. Reopening the same
// directory recovers: newest valid checkpoint, adopt the views over the
// restored delegates (no re-materialization), then replay the WAL tail
// through the registry's batch path so Algorithm 1 re-derives exactly
// the maintenance the crash interrupted — O(tail), not O(database).
//
// Aggregates and partial views (extensions.go) live in side stores and
// are not durable; re-register them after opening, as with LoadDB.

// SyncPolicy re-exports the WAL fsync policies for WithDurability.
type SyncPolicy = wal.SyncPolicy

// Fsync policies: SyncAlways never loses an acknowledged update,
// SyncInterval bounds loss to the flush interval, SyncNever leaves
// flushing to the OS (benchmarks and tests).
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// ParseSyncPolicy maps "always", "interval" or "never" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// defaultCheckpointEvery is how many durable base updates accumulate
// between automatic checkpoints.
const defaultCheckpointEvery = 4096

// checkpoint section names.
const (
	ckptSectionStore = "store"
	ckptSectionViews = "views"
)

// durability is the per-DB durability state.
type durability struct {
	mgr       *wal.Manager
	buf       *store.Buffer // base updates observed since the last flush
	every     int           // checkpoint after this many appended records
	sinceCkpt int
}

// openDurable builds a DB over the durability directory in c: recovery
// if the directory has state, a fresh durable database otherwise.
func openDurable(c *openConfig, db *DB) (*DB, error) {
	metrics := c.durMetrics
	if metrics == nil {
		metrics = wal.NewMetrics()
	}
	start := time.Now()
	mgr, err := wal.Open(c.durDir, wal.Options{
		Policy:       c.durPolicy,
		Interval:     c.durInterval,
		SegmentBytes: c.durSegmentBytes,
		Crash:        c.durCrash,
		Metrics:      metrics,
	})
	if err != nil {
		return nil, err
	}
	ckpt, err := mgr.LatestCheckpoint()
	if err != nil {
		mgr.Close()
		return nil, err
	}
	var replayFrom uint64
	prepopulated := ckpt == nil && db.Store.Len() != 0
	if ckpt != nil {
		if db.Store.Len() != 0 {
			mgr.Close()
			return nil, fmt.Errorf("gsv: durability dir %s has a checkpoint but the store is not empty", c.durDir)
		}
		if err := db.Store.Load(bytes.NewReader(ckpt.Section(ckptSectionStore))); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("gsv: restoring checkpoint: %w", err)
		}
		if err := db.adoptViews(ckpt.Section(ckptSectionViews)); err != nil {
			mgr.Close()
			return nil, err
		}
		replayFrom = ckpt.Seq
	} else if mgr.Log().LastSeq() > 0 && db.Store.Len() != 0 {
		mgr.Close()
		return nil, fmt.Errorf("gsv: durability dir %s has WAL records but no checkpoint and the store is not empty", c.durDir)
	}
	db.extraSeq = db.Store.Seq()

	// Replay the tail. Each record is re-applied through the store (so
	// it is re-logged on the recovered timeline) and drained immediately,
	// reproducing the per-mutation commit points of the live facade —
	// within each drain, maintenance still fans out across views on the
	// registry's batch path.
	replayed := 0
	if err := mgr.Log().Replay(replayFrom, func(u store.Update) error {
		if err := db.Store.ApplyUpdate(u); err != nil {
			return fmt.Errorf("gsv: replaying %s: %w", u, err)
		}
		db.Views.Drain()
		replayed++
		return nil
	}); err != nil {
		mgr.Close()
		return nil, err
	}
	// Maintenance errors during replay mean a view diverged mid-crash in
	// a way incremental replay could not reconcile; rebuild those views
	// from the recovered base instead of failing startup.
	if errs := db.Sync(); len(errs) > 0 {
		if err := db.recomputeAll(); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("gsv: recovery recompute: %w", err)
		}
	}
	db.Store.AdvanceSeq(mgr.Log().LastSeq())

	d := &durability{mgr: mgr, every: c.ckptEvery}
	if d.every <= 0 {
		d.every = defaultCheckpointEvery
	}
	db.dur = d
	// Credit the replayed tail toward the checkpoint cadence instead of
	// checkpointing inside Open: replay is deterministic from the
	// checkpoint, so a crash loop repeats the same (bounded) tail, and
	// deferring the collapse keeps recovery O(checkpoint + tail) with no
	// full-store write on the restart path. The first Sync past the
	// threshold folds the tail into a fresh checkpoint.
	d.sinceCkpt = replayed
	d.buf = store.NewBuffer()
	db.Store.Subscribe(d.buf.Observe)
	metrics.Recoveries.Inc()
	metrics.RecoverySeconds.ObserveSince(start)
	// A store handed in already populated (WithStore) over a directory
	// with no state has nothing durable yet: its objects predate the WAL
	// subscription. Checkpoint it now, or a crash before the first
	// automatic checkpoint would recover an empty database.
	if prepopulated {
		if err := d.checkpoint(db); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("gsv: initial checkpoint: %w", err)
		}
	}
	return db, nil
}

// adoptViews re-registers checkpointed view definitions over their
// restored objects. A definition whose view object did not survive (a
// torn checkpoint edge) falls back to a fresh materialization — the
// centralized analogue of quarantining a view instead of failing startup.
func (db *DB) adoptViews(section []byte) error {
	sc := json.NewDecoder(bytes.NewReader(section))
	for {
		var vd viewDef
		if err := sc.Decode(&vd); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("gsv: decoding checkpointed view definition: %w", err)
		}
		stmt, strategy := vd.statement()
		vs, err := parseViewStmt(stmt)
		if err != nil {
			return fmt.Errorf("gsv: checkpointed view %s: %w", vd.Name, err)
		}
		v, err := db.Views.AdoptParsed(vs, strategy)
		if err != nil {
			// No adoptable state: re-materialize from the restored base.
			v, err = db.Views.DefineParsed(vs, strategy)
			if err != nil {
				return fmt.Errorf("gsv: restoring view %s: %w", vd.Name, err)
			}
		}
		if v.Materialized != nil {
			v.Materialized.Swizzled = vd.Swizzled
		}
	}
}

// recomputeAll rebuilds every materialized view from the current base.
func (db *DB) recomputeAll() error {
	for _, name := range db.Views.Names() {
		v, _ := db.Views.Get(name)
		if v.Materialized != nil {
			if err := v.Materialized.Recompute(); err != nil {
				return err
			}
		}
	}
	db.Sync()
	return nil
}

// flush appends the base updates observed since the last flush to the
// WAL. View-machinery updates (delegate writes, view-object edits) are
// filtered out: they are re-derived by maintenance during replay, and
// logging them raw would be unsound anyway because delegate removals
// bypass the update log.
func (d *durability) flush(db *DB) error {
	us := d.buf.Take()
	if len(us) == 0 {
		return nil
	}
	base := us[:0]
	for _, u := range us {
		if db.Views.IsViewObject(u.N1) {
			continue
		}
		base = append(base, u)
	}
	if len(base) == 0 {
		return nil
	}
	if err := d.mgr.Log().Append(base...); err != nil {
		return err
	}
	d.sinceCkpt += len(base)
	return nil
}

// checkpoint snapshots the store and view definitions, covering every
// update at or below the store's current sequence number, and prunes the
// WAL behind it.
func (d *durability) checkpoint(db *DB) error {
	var w wal.CheckpointWriter
	w.AddFunc(ckptSectionStore, func(buf *bytes.Buffer) error { return db.Store.Save(buf) })
	w.AddFunc(ckptSectionViews, func(buf *bytes.Buffer) error {
		enc := json.NewEncoder(buf)
		for _, name := range db.Views.Names() {
			v, _ := db.Views.Get(name)
			vd := viewDef{Name: name, Materialized: v.Materialized != nil, Query: v.Query.String()}
			if v.Materialized != nil {
				vd.Strategy = v.Strategy.String()
				vd.Swizzled = v.Materialized.Swizzled
			}
			if err := enc.Encode(vd); err != nil {
				return err
			}
		}
		return nil
	})
	if err := d.mgr.WriteCheckpoint(db.Store.Seq(), &w); err != nil {
		return err
	}
	d.sinceCkpt = 0
	return nil
}

// syncDurability is called from DB.Sync before maintenance drains: the
// WAL append (and, per policy, fsync) makes the batch durable before its
// effects spread, and an automatic checkpoint fires once enough records
// have accumulated since the last one.
func (db *DB) syncDurability() []error {
	d := db.dur
	if d == nil || d.buf == nil {
		return nil
	}
	var errs []error
	if err := d.flush(db); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// maybeCheckpoint runs after maintenance has drained, so the snapshot
// sees a store whose views are consistent with its base.
func (db *DB) maybeCheckpoint() []error {
	d := db.dur
	if d == nil || d.buf == nil || d.sinceCkpt < d.every {
		return nil
	}
	// Pick up machinery updates maintenance just logged, so the WAL's
	// notion of "flushed" stays ahead of the checkpoint.
	if err := d.flush(db); err != nil {
		return []error{err}
	}
	if err := d.checkpoint(db); err != nil {
		return []error{err}
	}
	return nil
}

// Durable reports whether the database was opened with WithDurability.
func (db *DB) Durable() bool { return db.dur != nil }

// Checkpoint forces a checkpoint now: the store, every view's delegates
// and the definitions become the new recovery baseline and the WAL tail
// behind it is pruned. No-op without WithDurability.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return nil
	}
	db.Sync()
	if err := db.dur.flush(db); err != nil {
		return err
	}
	return db.dur.checkpoint(db)
}

// Close makes all acknowledged work durable and releases the WAL. A
// closed durable DB must not be mutated further. Without WithDurability,
// Close is a no-op.
func (db *DB) Close() error {
	if db.dur == nil {
		return nil
	}
	err := db.Checkpoint()
	if cerr := db.dur.mgr.Close(); err == nil {
		err = cerr
	}
	return err
}

// strategyFromString maps a serialized strategy name back to a Strategy;
// unknown names resolve to StrategyAuto.
func strategyFromString(s string) Strategy {
	switch s {
	case "simple":
		return core.StrategySimple
	case "general":
		return core.StrategyGeneral
	case "dag":
		return core.StrategyDag
	case "recompute":
		return core.StrategyRecompute
	default:
		return core.StrategyAuto
	}
}
