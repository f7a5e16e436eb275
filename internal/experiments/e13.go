package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"gsv"
	"gsv/internal/oem"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// e13Stream drives n stream updates against a store, syncing the DB (when
// one is attached) every chunk so the WAL group-commits realistically.
func e13Stream(db *gsv.DB, s *store.Store, sets, atoms []oem.OID, n int, seed int64) int {
	const chunk = 32
	stream := workload.NewStream(s, workload.StreamConfig{Seed: seed, ValueRange: 60}, sets, atoms)
	applied := 0
	for applied < n {
		if _, ok := stream.Next(); !ok {
			break
		}
		applied++
		if db != nil && applied%chunk == 0 {
			db.Sync()
		}
	}
	if db != nil {
		db.Sync()
	}
	return applied
}

// E13CrashRecovery measures the durable restart path: a database with the
// E12 multi-view workload runs a stream, checkpoints halfway, runs the
// second half (which therefore lives only in the WAL), and is then
// abandoned without a clean Close — a crash. Recovery is one
// Open(WithDurability): load the newest checkpoint, adopt the views over
// their restored delegates, replay the WAL tail through maintenance.
// The cold-start baseline is what a restart costs without the durability
// layer: reload a snapshot of the same final base and re-materialize
// every view from scratch. Both legs must produce identical memberships.
//
// Expected shape: recovery is O(checkpoint load + tail), cold start is
// O(base x views) materialization, so the gap widens with base size —
// on the largest sweep recovery should win clearly.
func E13CrashRecovery(cfg Config) *Table {
	t := &Table{
		ID:    "E13",
		Title: "crash recovery: checkpoint + WAL tail replay vs cold re-materialization",
		Caption: "Durable restart (docs/DURABILITY.md). 10 views (E12 workload); the " +
			"stream checkpoints halfway, so recovery = newest checkpoint + half the " +
			"stream replayed through Algorithm 1. Cold start reloads a snapshot of " +
			"the same final base and re-materializes all views. No clean shutdown: " +
			"the durable DB is abandoned mid-flight. Memberships are compared " +
			"member-for-member across the legs.",
		Headers: []string{"tuples", "objects", "tail upds", "cold ms", "recover ms",
			"speedup", "members equal"},
	}
	for _, tuples := range []int{50, 200, 800} {
		tuples *= cfg.Scale
		updates := cfg.Updates

		dir, err := os.MkdirTemp("", "gsv-e13-*")
		if err != nil {
			panic(err)
		}

		// Live phase: durable DB over the fixture, views, half the
		// stream, an explicit checkpoint, the other half (WAL tail
		// only), crash. Opening durable over the populated fixture
		// writes the initial checkpoint. 128 KiB segments so the
		// mid-stream checkpoint can truncate the log behind it.
		s, sets, atoms := e12Fixture(tuples, cfg.Seed)
		db, err := gsv.TryOpen(
			gsv.WithStore(s),
			gsv.WithDurability(dir, gsv.SyncNever),
			gsv.WithSegmentBytes(128<<10),
			gsv.WithCheckpointEvery(1<<30), // only the explicit mid-stream checkpoint
		)
		if err != nil {
			panic(err)
		}
		for _, v := range e12Views {
			if _, err := db.Define(v.stmt); err != nil {
				panic(err)
			}
		}
		e13Stream(db, db.Store, sets, atoms, updates/2, cfg.Seed+1)
		if err := db.Checkpoint(); err != nil {
			panic(err)
		}
		tail := e13Stream(db, db.Store, sets, atoms, updates-updates/2, cfg.Seed+2)
		want := map[string][]oem.OID{}
		for _, v := range e12Views {
			ms, err := db.ViewMembers(v.name)
			if err != nil {
				panic(err)
			}
			want[v.name] = ms
		}
		objects := db.Store.Len()
		// Crash: no Close, no final checkpoint. db is simply abandoned.

		// Recovery leg: one durable Open against the crashed directory.
		var rdb *gsv.DB
		recoverD := timed(func() {
			rdb, err = gsv.TryOpen(gsv.WithDurability(dir, gsv.SyncNever), gsv.WithSegmentBytes(128<<10))
			if err != nil {
				panic(err)
			}
		})

		// Cold leg: reload an equivalent final base (built without any view
		// machinery) and re-materialize every view over it.
		cold := store.NewDefault()
		cs, csets, catoms := e12Fixture(tuples, cfg.Seed)
		e13Stream(nil, cs, csets, catoms, updates/2, cfg.Seed+1)
		e13Stream(nil, cs, csets, catoms, updates-updates/2, cfg.Seed+2)
		var snap bytes.Buffer
		if err := cs.Save(&snap); err != nil {
			panic(err)
		}
		var cdb *gsv.DB
		coldD := timed(func() {
			if err := cold.Load(bytes.NewReader(snap.Bytes())); err != nil {
				panic(err)
			}
			cdb = gsv.Open(gsv.WithStore(cold))
			for _, v := range e12Views {
				if _, err := cdb.Define(v.stmt); err != nil {
					panic(err)
				}
			}
		})

		equal := true
		for _, v := range e12Views {
			rms, err := rdb.ViewMembers(v.name)
			if err != nil {
				panic(err)
			}
			cms, err := cdb.ViewMembers(v.name)
			if err != nil {
				panic(err)
			}
			if !oem.SameMembers(rms, want[v.name]) || !oem.SameMembers(cms, want[v.name]) {
				equal = false
			}
		}
		if !equal {
			panic(fmt.Sprintf("E13: memberships diverged at tuples=%d", tuples))
		}
		rdb.Close()
		os.RemoveAll(dir)

		coldMS := float64(coldD) / float64(time.Millisecond)
		recoverMS := float64(recoverD) / float64(time.Millisecond)
		t.AddRow(tuples, objects, tail, coldMS, recoverMS,
			ratio(coldMS, recoverMS), equal)
	}
	return t
}
