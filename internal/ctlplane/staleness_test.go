package ctlplane

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/transport"
)

// TestRemoteProviderStalenessBound pins the degraded-mode rule, which lives
// in Snapshot alone: with the endpoint down, the last snapshot keeps
// answering with a nil error (and DegradedSince set) while it is younger
// than maxStaleness, and with ErrMetaUnavailable — still the same snapshot —
// once it is older.
func TestRemoteProviderStalenessBound(t *testing.T) {
	p := NewRemoteProvider(transport.NewInMem(transport.Free), "nowhere")
	defer p.Close()
	cached := metadata.NewSnapshot(7, []metadata.ServerEntry{
		{ID: "s1", Addr: "s1-addr", View: metadata.View{Number: 3, Ranges: []metadata.HashRange{metadata.FullRange}}},
	}, nil, nil, nil)
	seen := func(age time.Duration) {
		p.cacheMu.Lock()
		p.snap, p.lastSnap = cached, time.Now().Add(-age)
		p.cacheMu.Unlock()
	}

	seen(maxStaleness / 2) // stale enough to need an RPC, young enough to serve
	snap, err := p.Snapshot()
	if err != nil || snap != cached {
		t.Fatalf("inside the bound: Snapshot = %p, %v; want the cached snapshot %p and no error", snap, err, cached)
	}
	if owner, ok := snap.Owner(42); !ok || owner != "s1" {
		t.Fatalf("degraded snapshot does not route: %q %v", owner, ok)
	}
	if p.DegradedSince().IsZero() {
		t.Fatal("DegradedSince is zero while serving an unrefreshable snapshot")
	}

	seen(maxStaleness + time.Second)
	snap, err = p.Snapshot()
	if !errors.Is(err, ErrMetaUnavailable) || snap != cached {
		t.Fatalf("past the bound: Snapshot = %p, %v; want the cached snapshot %p and ErrMetaUnavailable", snap, err, cached)
	}
}
