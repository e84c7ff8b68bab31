package fl

import (
	"testing"

	"feddrl/internal/core"
)

func TestCommPerRoundFedAvg(t *testing.T) {
	c := CommPerRound(FedAvg{}, 10, 1000, F64)
	wantDown := 10 * (4 + 8000)
	if c.DownlinkBytes != wantDown {
		t.Fatalf("downlink %d, want %d", c.DownlinkBytes, wantDown)
	}
	wantUp := 10 * (4 + 8000 + 8)
	if c.UplinkBytes != wantUp {
		t.Fatalf("uplink %d, want %d", c.UplinkBytes, wantUp)
	}
	if c.OverheadBytes != 0 || c.OverheadFraction() != 0 {
		t.Fatal("FedAvg should have no method overhead")
	}
}

func TestCommPerRoundFedDRL(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.Hidden = 8
	agg := NewFedDRL(core.NewAgent(cfg))
	c := CommPerRound(agg, 10, 1000, F64)
	if c.OverheadBytes != 160 { // 2 float64 per client × 10 clients
		t.Fatalf("overhead %d, want 160", c.OverheadBytes)
	}
	// §5.3's claim: the overhead is trivial relative to the weights.
	if f := c.OverheadFraction(); f > 0.01 {
		t.Fatalf("overhead fraction %v should be well under 1%%", f)
	}
	// And it shrinks as the model grows.
	big := CommPerRound(agg, 10, 100000, F64)
	if big.OverheadFraction() >= c.OverheadFraction() {
		t.Fatal("overhead fraction should shrink with model size")
	}
}

func TestOverheadFractionDegenerate(t *testing.T) {
	// The degenerate cases are defined, not accidental: no arrived
	// updates (k == 0, or an async round where everything dropped)
	// means no baseline and a fraction of 0 — never NaN.
	c := CommRound{}
	if c.OverheadFraction() != 0 {
		t.Fatal("zero round should have zero fraction")
	}
	if f := CommPerRound(FedAvg{}, 0, 1000, F64).OverheadFraction(); f != 0 {
		t.Fatalf("k=0 round fraction = %v, want 0", f)
	}
	if f := CommAsyncRound(FedAvg{}, 10, 0, 1000, F64).OverheadFraction(); f != 0 {
		t.Fatalf("all-dropped async round fraction = %v, want 0", f)
	}
}

func TestCommAsyncRound(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.Hidden = 8
	agg := NewFedDRL(core.NewAgent(cfg))

	// Partial round: 10 broadcasts, 7 arrivals. Downlink charges the
	// dispatches; uplink charges only completed uploads, each carrying
	// the staleness metadata on top of the synchronous payload.
	c := CommAsyncRound(agg, 10, 7, 1000, F64)
	wire := 4 + 8000
	if want := 10 * wire; c.DownlinkBytes != want {
		t.Fatalf("downlink %d, want %d", c.DownlinkBytes, want)
	}
	if want := 7 * (wire + 8 + 16 + AsyncMetaBytes); c.UplinkBytes != want {
		t.Fatalf("uplink %d, want %d", c.UplinkBytes, want)
	}
	if c.OverheadBytes != 7*16 {
		t.Fatalf("method overhead %d, want %d (staleness metadata is substrate, not method)", c.OverheadBytes, 7*16)
	}

	// Degenerate trace (everything arrives): differs from the
	// synchronous round by exactly arrived×AsyncMetaBytes of uplink.
	sync, async := CommPerRound(agg, 10, 1000, F64), CommAsyncRound(agg, 10, 10, 1000, F64)
	if async.DownlinkBytes != sync.DownlinkBytes || async.OverheadBytes != sync.OverheadBytes {
		t.Fatal("degenerate async round disagrees with synchronous accounting")
	}
	if async.UplinkBytes != sync.UplinkBytes+10*AsyncMetaBytes {
		t.Fatalf("degenerate async uplink %d, want sync %d + %d", async.UplinkBytes, sync.UplinkBytes, 10*AsyncMetaBytes)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("arrived > dispatched did not panic")
		}
	}()
	CommAsyncRound(agg, 5, 6, 1000, F64)
}
