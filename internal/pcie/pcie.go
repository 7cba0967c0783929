// Package pcie models the PCIe interconnect of §4.4 analytically for the
// paper's end-to-end experiments (Figures 12 and 13). The paper's parser
// runs on a discrete GPU, so its streaming mode pays a host-to-device
// transfer for every raw partition and a device-to-host transfer for
// every parsed one; the bus is full-duplex, so the two directions
// overlap while same-direction transfers serialise. This package only
// computes the modelled duration of one transfer — stream.Simulate
// schedules those durations through the Figure 7 pipeline. Nothing here
// sleeps: the production streaming pipeline runs on the host and has no
// interconnect to charge.
package pcie

import "time"

// Direction identifies a transfer direction.
type Direction int

const (
	// HostToDevice (HtoD) carries raw input to the accelerator.
	HostToDevice Direction = iota
	// DeviceToHost (DtoH) returns parsed data.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "HtoD"
	}
	return "DtoH"
}

// Config describes the modelled bus.
type Config struct {
	// BandwidthHtoD and BandwidthDtoH are bytes per second per direction.
	// Zero selects DefaultBandwidth.
	BandwidthHtoD float64
	BandwidthDtoH float64
	// Latency is the fixed per-transfer setup cost. Zero selects
	// DefaultLatency; negative disables.
	Latency time.Duration
}

// Default parameters model a PCIe 3.0 x16 link (§5 uses one): ~12 GB/s
// effective per direction and ~20 µs per transfer setup.
const (
	DefaultBandwidth = 12e9
	DefaultLatency   = 20 * time.Microsecond
)

// Bus is a modelled full-duplex interconnect. The zero value is not
// usable; construct with New.
type Bus struct {
	cfg Config
}

// New returns a Bus with the given configuration.
func New(cfg Config) *Bus {
	if cfg.BandwidthHtoD <= 0 {
		cfg.BandwidthHtoD = DefaultBandwidth
	}
	if cfg.BandwidthDtoH <= 0 {
		cfg.BandwidthDtoH = DefaultBandwidth
	}
	if cfg.Latency == 0 {
		cfg.Latency = DefaultLatency
	}
	if cfg.Latency < 0 {
		cfg.Latency = 0
	}
	return &Bus{cfg: cfg}
}

// Default returns a bus with PCIe 3.0 x16 parameters.
func Default() *Bus { return New(Config{}) }

// Config returns the effective configuration.
func (b *Bus) Config() Config { return b.cfg }

// TransferDuration returns the modelled duration for moving n bytes in
// the given direction.
func (b *Bus) TransferDuration(dir Direction, n int64) time.Duration {
	bw := b.cfg.BandwidthHtoD
	if dir == DeviceToHost {
		bw = b.cfg.BandwidthDtoH
	}
	return b.cfg.Latency + time.Duration(float64(n)/bw*float64(time.Second))
}
