package ctlplane_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
)

// startEndpoint boots a minimal server whose provider is the local store —
// i.e. a designated metadata endpoint serving MsgMeta* frames.
func startEndpoint(t *testing.T, store *metadata.Store, tr transport.Transport) *core.Server {
	t.Helper()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	t.Cleanup(func() { dev.Close() })
	srv, err := core.NewServer(core.ServerConfig{
		ID: "ep", Addr: "ep", Threads: 2, Transport: tr, Meta: store,
		Store: faster.Config{
			IndexBuckets: 1 << 10,
			Log:          hlog.Config{PageBits: 14, MemPages: 8, MutablePages: 4, Device: dev},
		},
	}, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	store.SetServerAddr("ep", srv.Addr())
	return srv
}

// snapOf is p's current snapshot; the test fails if p cannot produce one.
func snapOf(t *testing.T, p metadata.Provider) *metadata.Snapshot {
	t.Helper()
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// TestRemoteProviderRoundTrip exercises every Provider method over the wire
// against a live metadata endpoint and checks the mutations land in the
// backing store (and vice versa: store-side changes become visible through
// the provider).
func TestRemoteProviderRoundTrip(t *testing.T) {
	store := metadata.NewStore()
	tr := transport.NewInMem(transport.Free)
	startEndpoint(t, store, tr)

	rp := ctlplane.NewRemoteProvider(tr, "ep")
	defer rp.Close()

	// Registration + addressing through the provider.
	v, err := rp.RegisterServer("joiner")
	if err != nil || v.Number != 1 || len(v.Ranges) != 0 {
		t.Fatalf("joiner view = %+v, %v, want empty view #1", v, err)
	}
	if err := rp.SetServerAddr("joiner", "joiner-addr"); err != nil {
		t.Fatal(err)
	}
	if addr, err := snapOf(t, rp).ServerAddr("joiner"); err != nil || addr != "joiner-addr" {
		t.Fatalf("ServerAddr = %q, %v", addr, err)
	}
	if got, err := snapOf(t, store).ServerAddr("joiner"); err != nil || got != "joiner-addr" {
		t.Fatalf("mutation did not land in the backing store: %q, %v", got, err)
	}
	ids := snapOf(t, rp).ServerIDs()
	if len(ids) != 2 || ids[0] != "ep" || ids[1] != "joiner" {
		t.Fatalf("ServerIDs() = %v", ids)
	}

	// Reads see live store state.
	if owner, ok := snapOf(t, rp).Owner(42); !ok || owner != "ep" {
		t.Fatalf("Owner = %q, %v", owner, ok)
	}
	own := snapOf(t, rp).Ownership()
	if len(own) != 2 || !own["ep"].Owns(42) {
		t.Fatalf("Ownership() = %+v", own)
	}

	// Sentinel errors survive the wire.
	if _, _, _, err := rp.StartMigration("nope", "joiner", metadata.FullRange); !errors.Is(err, metadata.ErrUnknownServer) {
		t.Fatalf("StartMigration unknown source: %v", err)
	}

	// The atomic transition: remap + bump + register, observed remotely.
	rng := metadata.HashRange{Start: 1 << 62, End: 1 << 63}
	mig, sv, tv, err := rp.StartMigration("ep", "joiner", rng)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Number != 2 || tv.Number != 2 {
		t.Fatalf("post-migration views #%d/#%d, want #2/#2", sv.Number, tv.Number)
	}
	if got := snapOf(t, rp).PendingMigrationsFor("joiner"); len(got) != 1 || got[0].ID != mig.ID {
		t.Fatalf("PendingMigrationsFor = %+v", got)
	}
	if m, err := snapOf(t, rp).GetMigration(mig.ID); err != nil || m.Range != rng {
		t.Fatalf("GetMigration = %+v, %v", m, err)
	}
	if err := rp.MarkMigrationDone(mig.ID, "ep"); err != nil {
		t.Fatal(err)
	}
	if err := rp.MarkMigrationDone(mig.ID, "joiner"); err != nil {
		t.Fatal(err)
	}
	if err := rp.CancelMigration(mig.ID); !errors.Is(err, metadata.ErrMigrationDone) {
		t.Fatalf("cancel of complete migration: %v", err)
	}
	if err := rp.CollectMigration(mig.ID); err != nil {
		t.Fatal(err)
	}
	if got := snapOf(t, rp).Migrations; len(got) != 0 {
		t.Fatalf("Migrations after collect = %+v", got)
	}

	// A store-side change shows through the provider once its cached
	// snapshot is no longer fresh.
	store.SetServerAddr("joiner", "joiner-addr-2")
	deadline := time.Now().Add(2 * time.Second)
	for {
		addr, err := snapOf(t, rp).ServerAddr("joiner")
		if err == nil && addr == "joiner-addr-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("provider did not observe the new addr: %q, %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteProviderEndpointDown pins the failure mode: no endpoint, no
// cache — reads fail with ErrMetaUnavailable instead of hanging.
func TestRemoteProviderEndpointDown(t *testing.T) {
	tr := transport.NewInMem(transport.Free)
	rp := ctlplane.NewRemoteProvider(tr, "nowhere")
	defer rp.Close()
	for i := 0; i < 2; i++ { // the second call meets the open circuit breaker
		snap, err := rp.Snapshot()
		if !errors.Is(err, ctlplane.ErrMetaUnavailable) {
			t.Fatalf("Snapshot with endpoint down: %v", err)
		}
		if snap == nil || len(snap.Servers) != 0 {
			t.Fatalf("Snapshot with endpoint down = %+v, want the empty snapshot", snap)
		}
	}
	if err := rp.SetServerAddr("x", "x-addr"); !errors.Is(err, ctlplane.ErrMetaUnavailable) {
		t.Fatalf("SetServerAddr with endpoint down: %v", err)
	}
	if _, err := rp.RegisterServer("x"); !errors.Is(err, ctlplane.ErrMetaUnavailable) {
		t.Fatalf("RegisterServer with endpoint down: %v", err)
	}
}

// TestRemoteProviderOverlapRejection pins the concurrent-migration contract
// at the remote provider: disjoint in-flight migrations coexist (with
// strictly increasing epochs), overlapping starts come back as
// ErrMigrationOverlap across the wire, and a cancelled migration frees its
// range.
func TestRemoteProviderOverlapRejection(t *testing.T) {
	store := metadata.NewStore()
	tr := transport.NewInMem(transport.Free)
	startEndpoint(t, store, tr)

	rp := ctlplane.NewRemoteProvider(tr, "ep")
	defer rp.Close()
	rp.RegisterServer("t1")
	rp.RegisterServer("t2")

	m1, _, _, err := rp.StartMigration("ep", "t1", metadata.HashRange{Start: 100, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _, err := rp.StartMigration("ep", "t2", metadata.HashRange{Start: 300, End: 400})
	if err != nil {
		t.Fatalf("disjoint concurrent migration rejected remotely: %v", err)
	}
	if m2.Epoch <= m1.Epoch {
		t.Fatalf("epochs not strictly increasing over the wire: %d then %d", m1.Epoch, m2.Epoch)
	}

	// Overlaps with either in-flight range — including one the target now
	// owns — are rejected with the dedicated sentinel.
	for _, rng := range []metadata.HashRange{
		{Start: 100, End: 200}, {Start: 150, End: 160}, {Start: 350, End: 500},
	} {
		if _, _, _, err := rp.StartMigration("ep", "t1", rng); !errors.Is(err, metadata.ErrMigrationOverlap) {
			t.Fatalf("overlapping remote start %v: got %v, want ErrMigrationOverlap", rng, err)
		}
	}

	// The in-flight set (with epochs) is visible through the provider.
	inflight := 0
	for _, m := range snapOf(t, rp).Migrations {
		if m.InFlight() {
			inflight++
			if m.Epoch == 0 {
				t.Fatalf("in-flight migration %d lost its epoch over the wire", m.ID)
			}
		}
	}
	if inflight != 2 {
		t.Fatalf("in-flight migrations via provider = %d, want 2", inflight)
	}

	// Cancellation frees the range for a fresh start.
	if err := rp.CancelMigration(m1.ID); err != nil {
		t.Fatal(err)
	}
	m3, _, _, err := rp.StartMigration("ep", "t1", metadata.HashRange{Start: 100, End: 200})
	if err != nil {
		t.Fatalf("start over cancelled migration's range: %v", err)
	}
	if m3.Epoch <= m2.Epoch {
		t.Fatalf("epoch did not advance past %d: %d", m2.Epoch, m3.Epoch)
	}
}
