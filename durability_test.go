package gsv_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gsv"
	"gsv/internal/faults"
	"gsv/internal/oem"
	"gsv/internal/store"
	"gsv/internal/wal"
	"gsv/internal/workload"
)

// openDurable opens a durable DB over dir, failing the test on error.
func openDurable(t testing.TB, dir string, opts ...gsv.Option) *gsv.DB {
	t.Helper()
	db, err := gsv.TryOpen(append([]gsv.Option{gsv.WithDurability(dir, gsv.SyncAlways)}, opts...)...)
	if err != nil {
		t.Fatalf("TryOpen(%s): %v", dir, err)
	}
	return db
}

func TestDurableRestartRecoversDataAndViews(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	workload.PersonDB(db.Store)
	if errs := db.Sync(); len(errs) != 0 {
		t.Fatalf("sync errors: %v", errs)
	}
	if _, err := db.Define("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"); err != nil {
		t.Fatal(err)
	}
	// Mutations after the Define checkpoint live only in the WAL.
	db.MustPutSet("P9", "professor")
	db.MustPutAtom("A9", "age", gsv.Int(30))
	if err := db.Insert("P9", "A9"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("ROOT", "P9"); err != nil {
		t.Fatal(err)
	}
	want, err := db.ViewMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	got, err := db2.ViewMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	if !oem.SameMembers(got, want) {
		t.Fatalf("recovered YP = %v, want %v", got, want)
	}
	if !oem.SameMembers(got, []gsv.OID{"P1", "P9"}) {
		t.Fatalf("recovered YP = %v, want [P1 P9]", got)
	}
	// The recovered DB keeps maintaining.
	if err := db2.Delete("ROOT", "P9"); err != nil {
		t.Fatal(err)
	}
	got, _ = db2.ViewMembers("YP")
	if !oem.SameMembers(got, []gsv.OID{"P1"}) {
		t.Fatalf("post-recovery maintenance broken: YP = %v", got)
	}
}

func TestDurableRestartWithoutCheckpointTail(t *testing.T) {
	// Crash (no Close, no checkpoint flush beyond Define) and recover
	// purely from WAL replay.
	dir := t.TempDir()
	db := openDurable(t, dir)
	db.MustPutSet("ROOT", "db")
	for i := 0; i < 20; i++ {
		oid := gsv.OID(fmt.Sprintf("X%d", i))
		db.MustPutAtom(oid, "item", gsv.Int(int64(i)))
		if err := db.Insert("ROOT", oid); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: drop the DB without Close. SyncAlways means every
	// synced update is already durable.
	db2 := openDurable(t, dir)
	defer db2.Close()
	got, err := db2.Query("SELECT ROOT.item X WHERE X > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("recovered query returned %d members: %v", len(got), got)
	}
}

// TestDurableOpenPopulatedStoreSurvivesCrash opens a durable DB over a
// store that is already populated and crashes it before any checkpoint or
// update: the pre-existing objects never passed through the WAL, so only
// the checkpoint written at open can bring them back.
func TestDurableOpenPopulatedStoreSurvivesCrash(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	dir := t.TempDir()
	db := openDurable(t, dir, gsv.WithStore(s))
	// One update after open lives only in the WAL tail.
	if err := db.Modify("A1", gsv.Int(46)); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	want := storeObjects(t, db.Store)
	// Simulated crash: drop the DB without Close.
	db2 := openDurable(t, dir)
	defer db2.Close()
	got := storeObjects(t, db2.Store)
	if len(got) != len(want) {
		t.Fatalf("recovered %d objects, want %d", len(got), len(want))
	}
	for oid, o := range want {
		if r, ok := got[oid]; !ok || !r.Equal(o) {
			t.Fatalf("recovered %s = %v, want %v", oid, r, o)
		}
	}
}

// storeObjects copies every object of s, keyed by OID.
func storeObjects(t *testing.T, s *store.Store) map[gsv.OID]*oem.Object {
	t.Helper()
	out := map[gsv.OID]*oem.Object{}
	s.ForEach(func(o *oem.Object) { out[o.OID] = o })
	return out
}

func TestDurableOIDCountersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	a := db.Store.GenOID("obj")
	db.MustPutAtom(a, "x", gsv.Int(1))
	b := db.Store.GenOID("obj")
	db.MustPutAtom(b, "x", gsv.Int(2))
	db.Close()

	db2 := openDurable(t, dir)
	defer db2.Close()
	next := db2.Store.GenOID("obj")
	if next == a || next == b {
		t.Fatalf("GenOID reissued %s after restart", next)
	}
}

// TestDurableRecoveryEquivalenceProperty is the recovery-equivalence
// property test: for random update sequences, crashing at a random point
// (checkpoint + WAL tail replay) must yield a byte-identical store
// snapshot to never crashing at all.
func TestDurableRecoveryEquivalenceProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 99, 12345}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			steps := 120 + rng.Intn(120)
			ckptAt := rng.Intn(steps)                      // forced checkpoint here
			crashAt := ckptAt + 1 + rng.Intn(steps-ckptAt) // crash (stop) here

			dir := t.TempDir()
			// Large auto-checkpoint threshold: the only mid-run
			// checkpoints are Define's and the forced one, so the crash
			// point genuinely exercises tail replay.
			durable := openDurable(t, dir, gsv.WithCheckpointEvery(1<<20))
			control := gsv.Open()

			mutate := newScriptedMutator(rng)
			for i := 0; i < steps; i++ {
				mutate(t, durable, control, i)
				if i == ckptAt {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if i == crashAt {
					break // crash: no Close, no flush beyond Sync
				}
			}
			// Recover and finish the run on the recovered DB.
			recovered := openDurable(t, dir, gsv.WithCheckpointEvery(1<<20))
			defer recovered.Close()
			start := crashAt + 1
			if crashAt >= steps {
				start = steps
			}
			for i := start; i < steps; i++ {
				mutate(t, recovered, control, i)
			}

			var a, b bytes.Buffer
			if err := recovered.Store.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := control.Store.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d: recovered snapshot differs from never-crashed control (crash at step %d, checkpoint at %d)", seed, crashAt, ckptAt)
			}
		})
	}
}

// newScriptedMutator returns a deterministic step function that applies
// the same random mutation to two DBs — the durable one and the
// never-crashing control. Mutations are scripted from the step index and
// the seeded rng, so replaying steps i..n on a recovered DB matches the
// control's history exactly.
func newScriptedMutator(rng *rand.Rand) func(t *testing.T, a, b *gsv.DB, step int) {
	type op struct {
		kind   int
		n1, n2 gsv.OID
		v      int64
	}
	var objs []gsv.OID
	script := func(step int) op {
		o := op{kind: rng.Intn(10)}
		switch {
		case o.kind < 3 || len(objs) < 4: // put atom
			o.kind = 0
			o.n1 = gsv.OID(fmt.Sprintf("O%d", step))
			o.v = int64(rng.Intn(100))
			objs = append(objs, o.n1)
		case o.kind < 6: // insert
			o.kind = 1
			o.n1 = "ROOT"
			o.n2 = objs[rng.Intn(len(objs))]
		case o.kind < 8: // delete
			o.kind = 2
			o.n1 = "ROOT"
			o.n2 = objs[rng.Intn(len(objs))]
		default: // modify
			o.kind = 3
			o.n1 = objs[rng.Intn(len(objs))]
			o.v = int64(rng.Intn(100))
		}
		return o
	}
	var ops []op
	apply := func(t *testing.T, db *gsv.DB, o op) {
		t.Helper()
		switch o.kind {
		case 0:
			db.MustPutAtom(o.n1, "item", gsv.Int(o.v))
		case 1:
			_ = db.Insert(o.n1, o.n2) // duplicate inserts may error; both DBs agree
		case 2:
			_ = db.Delete(o.n1, o.n2)
		case 3:
			_ = db.Modify(o.n1, gsv.Int(o.v))
		}
	}
	return func(t *testing.T, a, b *gsv.DB, step int) {
		t.Helper()
		if step == 0 {
			a.MustPutSet("ROOT", "db")
			b.MustPutSet("ROOT", "db")
			if _, err := a.Define("define mview MV as: SELECT ROOT.item X WHERE X >= 50"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Define("define mview MV as: SELECT ROOT.item X WHERE X >= 50"); err != nil {
				t.Fatal(err)
			}
			return
		}
		// Generate each step exactly once; replay from the script when a
		// recovered DB re-runs later steps.
		for len(ops) < step {
			ops = append(ops, script(len(ops)))
		}
		o := ops[step-1]
		apply(t, a, o)
		apply(t, b, o)
	}
}

// TestDurableCrashSoak is the kill-and-restart soak: run scripted
// mutations, kill the process at injected crash points (between WAL
// append, fsync and checkpoint rename), restart, and require that
// recovered view memberships equal a from-scratch recompute of the same
// surviving base data.
func TestDurableCrashSoak(t *testing.T) {
	points := []string{"wal.append", "wal.write", "wal.fsync", "ckpt.write", "ckpt.fsync", "ckpt.rename", "ckpt.gc"}
	rng := rand.New(rand.NewSource(20260806))
	dir := t.TempDir()
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		cp := faults.NewCrashPoints()
		db, err := gsv.TryOpen(
			gsv.WithDurability(dir, gsv.SyncAlways),
			gsv.WithCheckpointEvery(16),
			gsv.WithCrashPoints(cp),
			gsv.WithParallelism(4),
		)
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		if round == 0 {
			db.MustPutSet("ROOT", "db")
			if _, err := db.Define("define mview MV as: SELECT ROOT.item X WHERE X >= 50"); err != nil {
				t.Fatal(err)
			}
		}
		// Arm a crash a few hits ahead at a random durability boundary.
		point := points[rng.Intn(len(points))]
		cp.Arm(point, 1+rng.Intn(5))

		crashed := runUntilCrash(t, db, rng, round)
		if !crashed {
			// The armed point may fire inside Close's final checkpoint —
			// still a crash, still recovered below.
			func() {
				defer func() {
					if v := recover(); v != nil {
						if _, ok := faults.IsCrash(v); !ok {
							panic(v)
						}
					}
				}()
				_ = db.Close()
			}()
		}
		// "Restart": recover and compare every view's membership to a
		// from-scratch recompute over the recovered base.
		cp.Disarm()
		re, err := gsv.TryOpen(gsv.WithDurability(dir, gsv.SyncAlways), gsv.WithCheckpointEvery(16))
		if err != nil {
			t.Fatalf("round %d (crash at %s): recovery failed: %v", round, point, err)
		}
		members, err := re.ViewMembers("MV")
		if err != nil {
			t.Fatalf("round %d: recovered view: %v", round, err)
		}
		oracle, err := re.Query("SELECT ROOT.item X WHERE X >= 50")
		if err != nil {
			t.Fatal(err)
		}
		if !oem.SameMembers(members, oracle) {
			t.Fatalf("round %d (crash at %s): recovered MV = %v, recompute = %v", round, point, members, oracle)
		}
		re.Close()
	}
}

// runUntilCrash applies random mutations until an injected crash fires
// (returning true) or the budget runs out (false).
func runUntilCrash(t *testing.T, db *gsv.DB, rng *rand.Rand, round int) (crashed bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := faults.IsCrash(v); !ok {
				panic(v)
			}
			crashed = true
		}
	}()
	for i := 0; i < 60; i++ {
		oid := gsv.OID(fmt.Sprintf("R%dI%d", round, i))
		switch rng.Intn(3) {
		case 0:
			db.MustPutAtom(oid, "item", gsv.Int(int64(rng.Intn(100))))
			_ = db.Insert("ROOT", oid)
		case 1:
			_ = db.Delete("ROOT", gsv.OID(fmt.Sprintf("R%dI%d", round, rng.Intn(i+1))))
		case 2:
			_ = db.Modify(gsv.OID(fmt.Sprintf("R%dI%d", round, rng.Intn(i+1))), gsv.Int(int64(rng.Intn(100))))
		}
	}
	return false
}

func TestDurableMetricsRegister(t *testing.T) {
	dir := t.TempDir()
	m := wal.NewMetrics()
	db := openDurable(t, dir, gsv.WithDurabilityMetrics(m))
	db.MustPutSet("ROOT", "db")
	db.MustPutAtom("A", "item", gsv.Int(1))
	if err := db.Insert("ROOT", "A"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Appends.Value() == 0 {
		t.Fatal("no WAL appends counted")
	}
	if m.Checkpoints.Value() == 0 {
		t.Fatal("no checkpoints counted")
	}
	if m.Recoveries.Value() != 1 {
		t.Fatalf("Recoveries = %d, want 1", m.Recoveries.Value())
	}
}

func TestNonDurableCloseCheckpointNoop(t *testing.T) {
	db := gsv.Open()
	if db.Durable() {
		t.Fatal("plain Open reports durable")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
