package soak

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/shadowfax"
)

func counter(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

// TestLedgerFires proves the checker can fail: every other soak test asserts
// zero violations, so a ledger whose bound checks were removed would pass
// them all. Each case feeds key 0 — 10 increments issued, 6 acked, 8 already
// observed by an earlier read — one read or one final-sweep value.
func TestLedgerFires(t *testing.T) {
	cases := []struct {
		name  string
		check func(l *ledger)
		want  int
	}{
		{"read at the floor", func(l *ledger) { l.checkRead(0, l.floor(0), counter(8), nil) }, 0},
		{"read at issued", func(l *ledger) { l.checkRead(0, l.floor(0), counter(10), nil) }, 0},
		{"stale read below observed", func(l *ledger) { l.checkRead(0, l.floor(0), counter(7), nil) }, 1},
		{"stale read below acked", func(l *ledger) { l.checkRead(0, l.floor(0), counter(5), nil) }, 1},
		{"read above issued", func(l *ledger) { l.checkRead(0, l.floor(0), counter(11), nil) }, 1},
		{"wrong-length read", func(l *ledger) { l.checkRead(0, l.floor(0), []byte{1, 2, 3}, nil) }, 1},
		{"NotFound after preload", func(l *ledger) { l.checkRead(0, l.floor(0), nil, shadowfax.ErrNotFound) }, 1},
		{"final at acked", func(l *ledger) { l.checkFinal(0, counter(6)) }, 0},
		{"final at issued", func(l *ledger) { l.checkFinal(0, counter(10)) }, 0},
		{"final below acked", func(l *ledger) { l.checkFinal(0, counter(5)) }, 1},
		{"final above issued", func(l *ledger) { l.checkFinal(0, counter(11)) }, 1},
		{"wrong-length final", func(l *ledger) { l.checkFinal(0, nil) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger(2)
			for i := 0; i < 10; i++ {
				l.issue(0)
			}
			for i := 0; i < 6; i++ {
				l.ack(0)
			}
			if !l.checkRead(0, 0, counter(8), nil) || len(l.violations()) != 0 {
				t.Fatalf("set-up read of 8 within [0, 10] was rejected: %v", l.violations())
			}
			tc.check(l)
			if got := l.violations(); len(got) != tc.want {
				t.Errorf("%d violations, want %d: %v", len(got), tc.want, got)
			}
		})
	}
}

// TestLedgerFloorFollowsAcks covers the other arm of the floor: acks that
// overtake the last observed value raise it too.
func TestLedgerFloorFollowsAcks(t *testing.T) {
	l := newLedger(1)
	for i := 0; i < 4; i++ {
		l.issue(0)
		l.ack(0)
	}
	if got := l.floor(0); got != 4 {
		t.Fatalf("floor = %d after 4 acks and no reads, want 4", got)
	}
	if l.checkRead(0, 0, nil, shadowfax.ErrNotFound) {
		t.Error("a NotFound read was reported as having returned a value")
	}
}

func TestLedgerViolationCap(t *testing.T) {
	l := newLedger(1)
	for i := 0; i < 3*maxViolations; i++ {
		l.violate("breach %d", i)
	}
	got := l.violations()
	if len(got) != maxViolations {
		t.Fatalf("%d violations kept, want the cap %d", len(got), maxViolations)
	}
	if got[0] != "breach 0" {
		t.Errorf("first kept violation is %q, want the earliest", got[0])
	}
}

func TestLedgerDump(t *testing.T) {
	logf := func(string, ...any) {}
	l := newLedger(2)
	l.issue(1)
	l.ack(1)
	l.checkFinal(1, counter(1))

	clean := filepath.Join(t.TempDir(), "clean")
	l.dump(clean, "seed=1", logf)
	if _, err := os.Stat(clean); !os.IsNotExist(err) {
		t.Errorf("a clean run created the artifact dir (stat err %v)", err)
	}

	l.checkFinal(0, counter(9))
	dir := filepath.Join(t.TempDir(), "failed")
	l.dump(dir, "seed=1", logf)
	trace, err := os.ReadFile(filepath.Join(dir, "violations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "seed=1\n\nfinal sweep: key 0 = 9, want within [acked 0, issued 0]\n"; string(trace) != want {
		t.Errorf("violations.txt = %q, want %q", trace, want)
	}
	hist, err := os.ReadFile(filepath.Join(dir, "key_history.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(hist)), "\n")
	if len(rows) != 3 || rows[0] != "key,hash,issued,acked,observed,final" ||
		!strings.HasPrefix(rows[2], "soak-000001,") || !strings.HasSuffix(rows[2], ",1,1,0,1") {
		t.Errorf("key_history.csv = %q", rows)
	}
}
