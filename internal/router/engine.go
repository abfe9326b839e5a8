package router

import (
	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// EnginePlane adapts the concurrent dataplane engine to the
// discrete-event simulator's DataPlane contract. Packets are forwarded
// inline (the simulator is single-threaded, so queueing through the
// engine's shard workers would only add nondeterminism), but the
// forwarding tables are the engine's RCU snapshots: control-plane
// programming goes through atomic snapshot publication and therefore
// never perturbs in-flight forwarding — the property the engine
// guarantees to real concurrent callers carries over to the simulation.
//
// The per-packet engine occupancy defaults to the software baseline cost
// divided by the worker count, modelling the throughput a sharded
// software plane sustains once every worker has a core of its own.
type EnginePlane struct {
	Engine *dataplane.Engine
	// PerPacket is the modelled engine occupancy per label operation.
	PerPacket netsim.Time
}

// NewEnginePlane wraps an engine as a simulator data plane. perPacket
// <= 0 selects DefaultSoftwareCost divided by the engine's worker count.
func NewEnginePlane(eng *dataplane.Engine, perPacket netsim.Time) *EnginePlane {
	if perPacket <= 0 {
		perPacket = DefaultSoftwareCost / netsim.Time(eng.Workers())
	}
	return &EnginePlane{Engine: eng, PerPacket: perPacket}
}

// Process implements DataPlane. ProcessInline performs one table pass;
// the router's engine loop drives the multi-pass cases, exactly as for
// the other planes.
func (e *EnginePlane) Process(p *packet.Packet) (swmpls.Result, netsim.Time) {
	return e.Engine.ProcessInline(p), e.PerPacket
}

// SetTelemetry implements DataPlane by attaching the sink to the
// engine (trace at the next batch, drop counters on a fresh snapshot).
func (e *EnginePlane) SetTelemetry(s telemetry.Sink) { e.Engine.SetTelemetry(s) }

// Close implements DataPlane by stopping the engine's shard workers.
func (e *EnginePlane) Close() error {
	e.Engine.Close()
	return nil
}

// ILMEntries implements TableReader against the engine's current RCU
// snapshot (immutable once published, so no locking is needed).
func (e *EnginePlane) ILMEntries() []swmpls.ILMEntry {
	return e.Engine.TableSnapshot().ILMEntries()
}

// FECEntries implements TableReader against the engine's current RCU
// snapshot.
func (e *EnginePlane) FECEntries() []swmpls.FECEntry {
	return e.Engine.TableSnapshot().FECEntries()
}

// InstallFEC implements DataPlane by publishing a new snapshot.
func (e *EnginePlane) InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error {
	return e.Engine.InstallFEC(dst, prefixLen, n)
}

// InstallILM implements DataPlane by publishing a new snapshot.
func (e *EnginePlane) InstallILM(in label.Label, n swmpls.NHLFE) error {
	return e.Engine.InstallILM(in, n)
}

// RemoveILM implements DataPlane by publishing a new snapshot.
func (e *EnginePlane) RemoveILM(in label.Label) { e.Engine.RemoveILM(in) }

// RemoveFEC implements DataPlane by publishing a new snapshot.
func (e *EnginePlane) RemoveFEC(dst packet.Addr, prefixLen int) {
	e.Engine.RemoveFEC(dst, prefixLen)
}
