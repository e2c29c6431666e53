package ctlplane

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// TestMetaErrCodesSurviveTheWire: every wire error class except MetaErrOther
// names a metadata sentinel, and an error wrapping that sentinel on the
// server is still errors.Is-equal to it on the client after fillMetaErr →
// encode → decode → metaError.
func TestMetaErrCodesSurviveTheWire(t *testing.T) {
	const last = wire.MetaErrPrimaryAlive // newest class; extend with the enum
	for code := wire.MetaErrNone + 1; code <= last; code++ {
		if code == wire.MetaErrOther {
			continue
		}
		var sentinel error
		for _, e := range metaErrs {
			if e.code == code {
				sentinel = e.sentinel
			}
		}
		if sentinel == nil {
			t.Errorf("wire class %d has no row in metaErrs", code)
			continue
		}
		var resp wire.MetaResp
		resp.OK = true
		fillMetaErr(&resp, fmt.Errorf("server-side context: %w", sentinel))
		if resp.OK || resp.ErrCode != code {
			t.Errorf("%v: filled OK=%v class %d, want class %d", sentinel, resp.OK, resp.ErrCode, code)
		}
		decoded, err := wire.DecodeMetaResp(wire.EncodeMetaResp(&resp))
		if err != nil {
			t.Fatal(err)
		}
		got := metaError(&decoded)
		if !errors.Is(got, sentinel) {
			t.Errorf("class %d: client error %q is not %v", code, got, sentinel)
		}
		for _, e := range metaErrs {
			if e.code != code && errors.Is(got, e.sentinel) {
				t.Errorf("class %d: client error %q also matches %v", code, got, e.sentinel)
			}
		}
	}
	if want := int(last) - 1; len(metaErrs) != want { // every class but None and Other
		t.Errorf("metaErrs has %d rows, want %d", len(metaErrs), want)
	}

	// An error outside the table keeps its text and matches no sentinel.
	var resp wire.MetaResp
	fillMetaErr(&resp, errors.New("disk on fire"))
	if resp.ErrCode != wire.MetaErrOther {
		t.Fatalf("unclassified error got class %d", resp.ErrCode)
	}
	if got := metaError(&resp); got == nil || got.Error() != "disk on fire" {
		t.Fatalf("unclassified error came back as %v", got)
	}
}
