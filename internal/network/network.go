// Package network models the SPIFFI interconnect exactly as §6.2 of the
// paper does: a bus with unlimited aggregate bandwidth and a constant
// per-message latency of 5 µs plus 0.04 µs per byte, regardless of which
// endpoints communicate. Messages are delivered into per-endpoint queues.
// The network is explicitly not a bottleneck; what the paper reports
// (Figure 18) is the peak aggregate bandwidth the server consumes, which
// this package meters.
package network

import (
	"spiffi/internal/sim"
	"spiffi/internal/stats"
	"spiffi/internal/trace"
)

// Params describes the wire model.
type Params struct {
	FixedDelay   sim.Duration // per message (paper: 5 µs)
	PerByteDelay sim.Duration // per payload byte (paper: 0.04 µs)
}

// DefaultParams returns the Table 1 network parameters.
func DefaultParams() Params {
	return Params{
		FixedDelay:   5 * sim.Microsecond,
		PerByteDelay: 40 * sim.Nanosecond,
	}
}

// meterWindow is the bandwidth meter's window in seconds: Figure 18's
// peak aggregate bandwidth is the busiest one-second window.
const meterWindow = 1.0

// Hook intercepts messages for fault injection. Mangle is consulted once
// per Send, after metering: drop=true discards the message (the receiver
// never sees it — timeouts are the only recovery), otherwise extra is
// added to the wire delay (congestion jitter). A deterministic hook makes
// the whole network deterministic, since it is consulted in Send order.
type Hook interface {
	Mangle(size int64) (drop bool, extra sim.Duration)
}

// Network is the shared bus.
type Network struct {
	k       *sim.Kernel
	params  Params
	meter   *stats.PeakRateMeter
	hook    Hook
	dropped int64
	rec     *trace.Recorder // nil unless tracing is enabled
}

// New creates the bus.
func New(k *sim.Kernel, params Params) *Network {
	return &Network{
		k:      k,
		params: params,
		meter:  stats.NewPeakRateMeter(meterWindow),
	}
}

// WireDelay returns the latency for a message with `size` payload bytes.
func (n *Network) WireDelay(size int64) sim.Duration {
	return n.params.FixedDelay + sim.Duration(size)*n.params.PerByteDelay
}

// Send delivers a message of `size` payload bytes after the wire delay by
// invoking deliver in kernel context.
func (n *Network) Send(size int64, deliver func()) { n.SendAction(size, sim.Func(deliver)) }

// SendAction delivers a message of `size` payload bytes after the wire
// delay by firing a in kernel context. A message that is its own Action
// (a block request) rides the wire without a delivery closure. Bandwidth
// is metered at send time. SendAction never blocks and may be called from
// any Action in kernel context; CPU send/receive costs are charged by
// the endpoints, not here.
func (n *Network) SendAction(size int64, a sim.Action) {
	n.meter.Record(n.k.Now().Seconds(), float64(size))
	delay := n.WireDelay(size)
	if n.hook != nil {
		drop, extra := n.hook.Mangle(size)
		if drop {
			n.dropped++
			n.rec.NetSend(size, delay, true)
			return
		}
		delay += extra
	}
	n.rec.NetSend(size, delay, false)
	n.k.Schedule(n.k.Now().Add(delay), a)
}

// SetTrace attaches a trace recorder (nil is fine: emits become no-ops).
func (n *Network) SetTrace(rec *trace.Recorder) { n.rec = rec }

// SetHook installs (or, with nil, removes) the fault-injection hook.
func (n *Network) SetHook(h Hook) { n.hook = h }

// Dropped returns the number of messages discarded by the hook.
func (n *Network) Dropped() int64 { return n.dropped }

// PeakAggregateBandwidth returns the highest windowed transfer rate seen,
// in bytes/second (Figure 18's metric).
func (n *Network) PeakAggregateBandwidth() float64 { return n.meter.PeakRate() }

// TotalBytes returns the total payload bytes carried.
func (n *Network) TotalBytes() float64 { return n.meter.Total() }

// ResetStats restarts bandwidth metering (to discard warm-up).
func (n *Network) ResetStats() {
	n.meter.Reset()
	n.dropped = 0
}
