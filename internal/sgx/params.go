// Package sgx simulates the Intel SGX trusted execution environment that
// secureTF (Middleware 2020) builds on.
//
// The simulator is functional where functionality matters for security
// protocols — measurement, sealed storage, report/quote generation and
// verification are real cryptographic operations — and analytic where the
// paper's evaluation depends on hardware behaviour: EPC capacity, paging,
// the memory encryption engine (MEE) and enclave transitions are modelled
// as virtual-time charges against a vtime.Clock.
//
// The calibration constants in Params come from the paper itself (94 MB
// usable EPC, 4 GB/s AES-NI throughput) and from published SGX
// microbenchmark literature (transition and paging costs).
package sgx

import "time"

// Mode selects how an enclave charges costs.
type Mode int

const (
	// ModeHW models real SGX hardware: EPC capacity limits, paging costs,
	// MEE bandwidth reduction, and enclave-transition costs all apply.
	ModeHW Mode = iota + 1
	// ModeSIM models SCONE's simulation mode: the runtime behaves
	// identically (syscall interposition, scheduling) but no SGX hardware
	// is engaged, so EPC/MEE/transition costs do not apply.
	ModeSIM
)

// String returns the conventional name used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeHW:
		return "HW"
	case ModeSIM:
		return "SIM"
	default:
		return "invalid"
	}
}

// AccessPattern describes how a memory region is touched, which determines
// the cost of EPC paging once the working set exceeds the EPC.
type AccessPattern int

const (
	// AccessStreaming marks sequential, read-only traffic (e.g. TensorFlow
	// Lite streaming over model weights). Evicted pages are clean, so
	// page-in is a cheap sequential ELDU with no write-back.
	AccessStreaming AccessPattern = iota + 1
	// AccessRandom marks read-write traffic with reuse (e.g. the full
	// TensorFlow runtime's graph state and training arenas). Faults pay the
	// full EWB + ELDU + TLB-shootdown cost and thrash super-linearly once
	// the working set exceeds the EPC.
	AccessRandom
)

// Params holds the cost-model calibration. The zero value is not valid;
// use DefaultParams.
type Params struct {
	// EPCSize is the usable Enclave Page Cache size in bytes. The paper
	// repeatedly cites ~94 MB for SGXv1.
	EPCSize int64
	// PageSize is the EPC page size in bytes (4 KiB on SGXv1).
	PageSize int64

	// TransitionCost is the cost of one enclave round trip
	// (EENTER+EEXIT or AEX). Literature reports ~8,000 cycles; at 3.9 GHz
	// that is ~2 µs.
	TransitionCost time.Duration
	// AsyncSyscallCost is the in-enclave cost of submitting a request to
	// the asynchronous syscall queue (SCONE §3.3): a shared-memory
	// enqueue, no transition.
	AsyncSyscallCost time.Duration
	// NativeSyscallCost is the cost of an ordinary user/kernel syscall
	// crossing outside any enclave, used by the native baselines.
	NativeSyscallCost time.Duration

	// StreamPageInCost is the per-page cost for clean sequential page-in.
	StreamPageInCost time.Duration
	// ThrashPageCost is the per-page cost of a full evict+load cycle for
	// dirty, randomly accessed pages.
	ThrashPageCost time.Duration
	// ThrashExponent controls super-linear degradation: the per-page cost
	// is multiplied by (workingSet/EPC)^ThrashExponent once the working
	// set exceeds the EPC.
	ThrashExponent float64

	// MEEFactor is the slowdown of enclave memory bandwidth caused by the
	// memory encryption engine on cache misses.
	MEEFactor float64
	// HWComputeFactor is the slowdown of in-enclave computation in HW
	// mode: MEE latency on LLC misses and TLB pressure reach compute-
	// bound code too. Applied by Enclave.Compute.
	HWComputeFactor float64
	// DirtyEvictExponent governs the extra cost of streaming page-ins
	// that must evict dirty pages: per-page cost gains
	// dirtyFraction · ThrashPageCost · pressure^DirtyEvictExponent.
	// A runtime with a large writable resident set (Graphene's library
	// OS) degrades faster past the EPC than one streaming read-only
	// weights over a small dirty set (SCONE + TensorFlow Lite).
	DirtyEvictExponent float64
	// SIMCopyThroughput is the effective enclave-boundary copy
	// throughput of SCONE's simulation mode. The paper (§5.4) attributes
	// most of the SIM-mode training overhead to "a scheduling issue in
	// SCONE" on the syscall copy path, later fixed; this reproduces the
	// behaviour of the evaluated version.
	SIMCopyThroughput float64
	// MemBandwidth is untrusted DRAM bandwidth in bytes/second used for
	// charging memory-bound work.
	MemBandwidth float64

	// CoreFLOPS is per-core sustained floating point throughput
	// (FLOPs/second) used to charge analytic compute time.
	CoreFLOPS float64
	// HyperThreadEff is the marginal efficiency of a hyper-thread
	// relative to a physical core (the paper's machines have 4 physical
	// cores and 8 hyper-threads).
	HyperThreadEff float64
	// PhysicalCores is the number of physical cores per node.
	PhysicalCores int

	// AESThroughput is AES-GCM throughput in bytes/second with AES-NI.
	// The paper cites "up to 4 GB/s" for the file-system shield.
	AESThroughput float64

	// LANRTT is the round-trip time inside the cluster (1 Gb/s switched
	// network in the paper's setup).
	LANRTT time.Duration
	// WANRTT is the round-trip time to a remote wide-area service such as
	// the Intel Attestation Service.
	WANRTT time.Duration
	// WireBandwidth is the cluster network bandwidth in bytes/second
	// (1 Gb/s in the paper's setup).
	WireBandwidth float64
	// TLSHandshakeCost is the CPU cost of a TLS 1.3 handshake (key
	// exchange + certificate verification), excluding network RTTs.
	TLSHandshakeCost time.Duration
	// NetShieldThroughput is the effective TLS record processing
	// throughput of the network shield. It is far below raw AES-NI
	// because records are small and every byte is copied across the
	// enclave boundary twice.
	NetShieldThroughput float64
	// NetShieldRecordCost is the fixed per-record cost of the network
	// shield.
	NetShieldRecordCost time.Duration

	// EnclaveCreateCost is the one-time cost of building an enclave:
	// EINIT and the fixed setup around it. The per-page EADD/EEXTEND is
	// added on top, one perPageAddCost per page of image (platform.go).
	EnclaveCreateCost    time.Duration
	ReportCost           time.Duration // EREPORT
	QuoteSignCost        time.Duration // quoting enclave signature
	QuoteVerifyCostLocal time.Duration // DCAP-style local verification (CAS)
	// QuoteVerifyCostIntel is Intel-side EPID verification processing;
	// together with one WANRTT the "wait confirmation" leg comes to the
	// ~280 ms the paper reports for IAS.
	QuoteVerifyCostIntel time.Duration
	// AttestInitCost is the client-side setup cost of an attestation
	// round: ephemeral key generation, socket setup and the TLS session
	// to the verifier. Identical for the CAS and IAS flows — the flows
	// diverge only after initialization (Figure 4).
	AttestInitCost time.Duration
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		EPCSize:  94 << 20,
		PageSize: 4096,

		TransitionCost:    2100 * time.Nanosecond,
		AsyncSyscallCost:  300 * time.Nanosecond,
		NativeSyscallCost: 900 * time.Nanosecond,

		StreamPageInCost: 7 * time.Microsecond,
		ThrashPageCost:   40 * time.Microsecond,
		ThrashExponent:   3.0,

		MEEFactor:          2.0,
		HWComputeFactor:    1.12,
		DirtyEvictExponent: 1.5,
		SIMCopyThroughput:  100e6,
		MemBandwidth:       12e9,

		CoreFLOPS:      20e9,
		HyperThreadEff: 0.55,
		PhysicalCores:  4,

		AESThroughput: 4e9,

		LANRTT:              200 * time.Microsecond,
		WANRTT:              140 * time.Millisecond,
		WireBandwidth:       125e6, // 1 Gb/s
		TLSHandshakeCost:    1200 * time.Microsecond,
		NetShieldThroughput: 80e6,
		NetShieldRecordCost: 2 * time.Microsecond,

		EnclaveCreateCost:    1200 * time.Microsecond,
		ReportCost:           25 * time.Microsecond,
		QuoteSignCost:        160 * time.Microsecond,
		QuoteVerifyCostLocal: 800 * time.Microsecond,
		QuoteVerifyCostIntel: 140 * time.Millisecond,
		AttestInitCost:       15 * time.Millisecond,
	}
}

// ComputeTime converts a FLOP count into virtual time on n parallel
// execution contexts, accounting for hyper-threading beyond the physical
// core count.
func (p Params) ComputeTime(flops float64, contexts int) time.Duration {
	if flops <= 0 {
		return 0
	}
	if contexts < 1 {
		contexts = 1
	}
	eff := float64(contexts)
	if contexts > p.PhysicalCores {
		// The product is rounded before the sum, as amd64 rounds it: arm64
		// would fuse the two, and every compute charge hangs off eff.
		eff = float64(p.PhysicalCores) + float64(float64(contexts-p.PhysicalCores)*p.HyperThreadEff)
	}
	sec := flops / (p.CoreFLOPS * eff)
	return time.Duration(sec * float64(time.Second))
}

// MemTime converts a byte count of memory traffic into virtual time at
// untrusted DRAM bandwidth.
func (p Params) MemTime(bytes float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(bytes / p.MemBandwidth * float64(time.Second))
}

// TimeAtThroughput converts a byte count into time at an arbitrary
// throughput in bytes/second.
func TimeAtThroughput(bytes, bytesPerSecond float64) time.Duration {
	if bytes <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(bytes / bytesPerSecond * float64(time.Second))
}
