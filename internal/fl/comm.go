package fl

import "feddrl/internal/serialize"

// Communication accounting (§5.3): FedDRL's only communication overhead
// versus FedAvg is "some extra floating point numbers for the inference
// loss". This file models the round payload sizes — synchronous full
// rounds and asynchronous partial rounds — so the claim can be measured
// rather than asserted.

// MetadataSizer is an optional Aggregator extension reporting the extra
// per-client uplink metadata (bytes) the method requires beyond the
// FedAvg baseline (weights + sample count).
type MetadataSizer interface {
	ExtraUplinkBytes() int
}

// ExtraUplinkBytes reports FedDRL's uplink overhead: the two inference
// losses l_b and l_a (two float64s) per client per round.
func (*FedDRL) ExtraUplinkBytes() int { return 16 }

// AsyncMetaBytes is the per-update staleness metadata an asynchronous
// uplink carries beyond the synchronous payload: the server version the
// update was trained against (a fixed-width integer), which the server
// needs to compute the update's age for staleness-weighted merging.
const AsyncMetaBytes = 8

// CommRound models one round's traffic. For a synchronous round the
// dispatched and arrived cohorts coincide; for an asynchronous partial
// round they differ — bytes are charged per dispatched broadcast on the
// downlink and per *arrived* update on the uplink (a dropped client's
// upload never completes, but its broadcast was still sent).
type CommRound struct {
	// DownlinkBytes is the server→clients broadcast: one copy of the
	// global weight vector per dispatched client.
	DownlinkBytes int
	// UplinkBytes is the clients→server transfer: one weight vector plus
	// per-client metadata (sample count, any aggregator extras, and
	// staleness metadata for async rounds) per arrived update.
	UplinkBytes int
	// OverheadBytes is the part of UplinkBytes attributable to the
	// aggregation method beyond the FedAvg baseline (staleness metadata
	// is substrate overhead, not method overhead, and is excluded).
	OverheadBytes int
}

// weightWireSize returns the encoded byte size of one weight vector
// under the run's precision: 8 bytes per weight for F64, 4 for F32
// (the half-width encoding of serialize.WriteVector32).
func weightWireSize(prec Precision, weightLen int) int {
	if prec == F32 {
		return serialize.VectorWireSize32(weightLen)
	}
	return serialize.VectorWireSize(weightLen)
}

// CommPerRound computes one synchronous round's traffic for K
// participants exchanging weight vectors of the given precision under
// the given aggregator. F32 rounds move half-width weight payloads in
// both directions (metadata stays fixed-width), so their traffic is
// just under half the F64 round's.
func CommPerRound(agg Aggregator, k, weightLen int, prec Precision) CommRound {
	wire := weightWireSize(prec, weightLen)
	const countBytes = 8 // n_k as a fixed-width integer
	extra := 0
	if ms, ok := agg.(MetadataSizer); ok {
		extra = ms.ExtraUplinkBytes()
	}
	return CommRound{
		DownlinkBytes: k * wire,
		UplinkBytes:   k * (wire + countBytes + extra),
		OverheadBytes: k * extra,
	}
}

// CommAsyncRound computes one asynchronous aggregation step's traffic:
// dispatched broadcasts on the downlink, arrived updates (each carrying
// the synchronous payload plus AsyncMetaBytes of staleness metadata) on
// the uplink. arrived never exceeds dispatched in a real trace; the
// degenerate trace (arrived == dispatched) differs from CommPerRound by
// exactly arrived×AsyncMetaBytes of uplink. Only the weight payload
// narrows under F32; the staleness metadata stays fixed-width.
func CommAsyncRound(agg Aggregator, dispatched, arrived, weightLen int, prec Precision) CommRound {
	if arrived > dispatched {
		panic("fl: CommAsyncRound with more arrivals than dispatches")
	}
	wire := weightWireSize(prec, weightLen)
	const countBytes = 8
	extra := 0
	if ms, ok := agg.(MetadataSizer); ok {
		extra = ms.ExtraUplinkBytes()
	}
	return CommRound{
		DownlinkBytes: dispatched * wire,
		UplinkBytes:   arrived * (wire + countBytes + extra + AsyncMetaBytes),
		OverheadBytes: arrived * extra,
	}
}

// OverheadFraction returns the method's uplink overhead relative to the
// FedAvg baseline for the same round (0 for FedAvg itself).
//
// The degenerate round is explicit: a round with no arrived updates has
// no baseline to compare against (an async partial round where every
// update was dropped, or k == 0), so the fraction is defined as 0 —
// "no traffic, no overhead" — rather than NaN from a 0/0 division.
func (c CommRound) OverheadFraction() float64 {
	base := c.UplinkBytes - c.OverheadBytes
	if base == 0 {
		return 0
	}
	return float64(c.OverheadBytes) / float64(base)
}
