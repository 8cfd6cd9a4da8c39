package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

// snapshot.go makes a networked participant's complete mutable state
// explicitly serializable, so a crashed daemon can restart from an
// epoch checkpoint and replay its run bit-identically. A snapshot
// captures everything a Node mutates while stepping: the protocol
// phase machine, the diptych (public centroids and, mid-gossip, the
// encrypted push-sum state), the decryption collection buffers, the
// disclosed history, and the one-word splitmix64 state of the noise
// RNG. The run-wide immutable configuration (params, data, suite) is
// NOT in the snapshot — the restarting daemon reconstructs it from the
// same (data, params) every process derives — with one exception: the
// Damgård–Jurik ceremony key material (this process's own share only),
// which cannot be re-derived because the ceremony entropy came from
// crypto/rand and the mesh has moved past the ceremony.
//
// The hot-path scratch buffers (emit double-buffers, arena vectors,
// posted decrypt asks, decode buffers, inbox classification slices) are
// deliberately absent: they are rebuilt lazily on the next activation
// and hold no trajectory state.

const (
	snapMagic uint32 = 0xC1A85A9B
	// snapVersion 2 added the decrypt-phase outstanding-request window
	// (sorted (peer, ttl) pairs after the asked block). Version 3 added
	// the push-sum state's dyadic exponent after its weight: a v2 state
	// holds halved residues that a dyadic decoder would misread, so
	// older snapshots are rejected rather than restored.
	snapVersion uint32 = 3
)

// errSnapshot wraps every malformed-snapshot condition so callers can
// distinguish corruption from config mismatch if they care to.
var errSnapshot = errors.New("core: malformed snapshot")

// Snapshot serializes the node's complete mutable state. The intended
// call point is an epoch boundary (the transport checkpoints after a
// barrier completes), but any quiescent moment between Step calls is
// valid. The encoding is the wire package's field codec (docs/WIRE.md);
// floats travel as IEEE-754 bit patterns so a restore is bit-exact,
// NaNs included.
func (nd *Node) Snapshot() ([]byte, error) {
	p := nd.pt

	buf := wire.AppendU32(nil, snapMagic)
	buf = wire.AppendU32(buf, snapVersion)

	// Header blob: everything RestoreNode needs BEFORE it can build the
	// run setup — identity, RNG state, and the ceremony key material.
	hdr := wire.AppendU64(nil, nd.Fingerprint())
	hdr = wire.AppendU32(hdr, uint32(p.id))
	hdr = wire.AppendU64(hdr, p.rngSrc.State())
	m := nd.rs.p.DJMaterial
	hdr = wire.AppendBool(hdr, m != nil)
	if m != nil {
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(m); err != nil {
			return nil, fmt.Errorf("core: snapshot key material: %w", err)
		}
		hdr = wire.AppendBytes(hdr, gb.Bytes())
	}
	buf = wire.AppendBytes(buf, hdr)

	// State blob: the participant's mutable protocol state.
	var st []byte
	for _, v := range []int{int(p.phase), p.iter, p.roundsDone, p.assignment, p.waitCycles, p.staleDrops, p.decryptFail, p.diptych.Iteration} {
		st = wire.AppendU32(st, uint32(v))
	}
	st = wire.AppendFloats(st, p.diptych.Centroids)

	// The encrypted push-sum state only matters in the phases that read
	// it before stepAssign rebuilds it (gossip and decrypt); elsewhere a
	// stale Means is dead weight, so it is dropped.
	means := p.diptych.Means
	hasMeans := means != nil && (p.phase == phaseGossip || p.phase == phaseDecrypt)
	st = wire.AppendBool(st, hasMeans)
	var err error
	if hasMeans {
		st = wire.AppendF64(st, means.Weight())
		st = wire.AppendU32(st, uint32(means.Exp))
		if st, err = nd.appendCipherVector(st, means.Values()); err != nil {
			return nil, fmt.Errorf("core: snapshot push-sum state: %w", err)
		}
	}

	// pendingCT's nil-ness is protocol state: stepDecrypt runs step 2c
	// exactly when it is nil, so the flag must round-trip even though an
	// empty vector never occurs.
	st = wire.AppendBool(st, p.pendingCT != nil)
	if p.pendingCT != nil {
		if st, err = nd.appendCipherVector(st, p.pendingCT); err != nil {
			return nil, fmt.Errorf("core: snapshot pending ciphertexts: %w", err)
		}
	}

	// Partials, asked peers and the request window are kept sorted by
	// index/id, which makes the snapshot bytes deterministic.
	st = wire.AppendU32(st, uint32(len(p.partials)))
	for _, set := range p.partials {
		st = wire.AppendU32(st, uint32(set[0].Index))
		pv, err := nd.codec.MarshalPartialValues(set)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot partials: %w", err)
		}
		st = wire.AppendBytes(st, pv)
	}
	st = wire.AppendU32(st, uint32(len(p.asked)))
	for _, id := range p.asked {
		st = wire.AppendU32(st, uint32(id))
	}
	st = wire.AppendU32(st, uint32(len(p.outstanding)))
	for _, a := range p.outstanding {
		st = wire.AppendU32(st, uint32(a.peer))
		st = wire.AppendU32(st, uint32(a.ttl))
	}

	st = wire.AppendU32(st, uint32(len(p.history)))
	for _, h := range p.history {
		st = wire.AppendU32(st, uint32(h.Iteration))
		st = wire.AppendF64(st, h.Epsilon)
		st = wire.AppendFloats(st, h.PerturbedCentroids)
		st = wire.AppendFloats(st, [][]float64{h.PerturbedCounts})
		st = wire.AppendF64(st, h.PerturbedInertia)
		st = wire.AppendU32(st, uint32(h.Assignment))
		st = wire.AppendF64(st, h.Displacement)
		st = wire.AppendBool(st, h.DecryptFailed)
		st = wire.AppendU32(st, uint32(h.CompletedAtCycle))
	}
	return wire.AppendBytes(buf, st), nil
}

// snapshotHeader is the pre-construction part of a snapshot.
type snapshotHeader struct {
	fingerprint uint64
	id          int
	rngState    uint64
	material    *DJKeyMaterial
}

// parseSnapshotHeader splits a snapshot into its header (decoded) and
// its still-encoded state blob.
func parseSnapshotHeader(snap []byte) (*snapshotHeader, []byte, error) {
	d := wire.NewDecoder(snap)
	if magic := d.U32(); magic != snapMagic {
		d.Failf("bad magic 0x%08x", magic)
	}
	if version := d.U32(); version != snapVersion {
		d.Failf("version %d, want %d", version, snapVersion)
	}
	hd := wire.NewDecoder(d.Bytes())
	st := d.Bytes()

	h := &snapshotHeader{}
	h.fingerprint = hd.U64()
	h.id = int(hd.U32())
	h.rngState = hd.U64()
	if hd.Bool() {
		h.material = new(DJKeyMaterial)
		hd.Fail(gob.NewDecoder(bytes.NewReader(hd.Bytes())).Decode(h.material))
	}
	d.Fail(hd.Done())
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", errSnapshot, err)
	}
	return h, st, nil
}

// RestoreNode rebuilds a Node from the shared run configuration and a
// snapshot taken by Node.Snapshot. The (data, params) must be the same
// configuration the snapshotted node was built from — the snapshot's
// fingerprint is checked against it, so a restart launched with
// different flags fails loudly instead of diverging. Ceremony key
// material embedded in the snapshot takes the place of re-running the
// key ceremony.
func RestoreNode(data [][]float64, params Params, id int, snap []byte) (*Node, error) {
	h, stBytes, err := parseSnapshotHeader(snap)
	if err != nil {
		return nil, err
	}
	if h.id != id {
		return nil, fmt.Errorf("%w: snapshot is node %d's, not node %d's", errSnapshot, h.id, id)
	}
	if h.material != nil {
		params.DJMaterial = h.material
	}
	fp, err := ConfigFingerprint(data, params)
	if err != nil {
		return nil, err
	}
	if h.fingerprint != fp {
		return nil, fmt.Errorf("core: snapshot fingerprint %016x does not match run configuration %016x", h.fingerprint, fp)
	}
	nd, err := NewNode(data, params, id)
	if err != nil {
		return nil, err
	}
	if err := nd.restoreState(h, stBytes); err != nil {
		nd.Close()
		return nil, err
	}
	return nd, nil
}

// restoreState decodes the participant state blob into the freshly
// constructed node, validating every field against the run
// configuration so a corrupted checkpoint is rejected instead of
// desynchronizing (or crashing) the participant.
func (nd *Node) restoreState(h *snapshotHeader, st []byte) error {
	p := nd.pt
	r := p.run
	parties := nd.rs.suite.Parties()
	d := wire.NewDecoder(st)

	ph := phase(d.U32())
	if ph > phaseDone {
		d.Failf("phase %d out of range", ph)
	}
	iter := int(d.U32())
	if iter >= len(r.epsSched) {
		d.Failf("iteration %d outside schedule of %d", iter, len(r.epsSched))
	}
	roundsDone := int(d.U32())
	assignment := int(d.U32())
	if assignment >= r.params.K {
		d.Failf("assignment %d outside K=%d", assignment, r.params.K)
	}
	waitCycles := int(d.U32())
	staleDrops := int(d.U32())
	decryptFail := int(d.U32())
	dipIter := int(d.U32())
	centroids := d.Floats(r.params.K, r.dim)

	var means *gossip.State[Cipher]
	if d.Bool() {
		w := d.F64()
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 || w > float64(r.population) {
			d.Failf("implausible push-sum weight %g", w)
		}
		exp := int(d.U32())
		// The same headroom test DecodePayload applies to the messages
		// such a state absorbs and will emit.
		if !r.dyadicInBudget(w, exp) {
			d.Failf("push-sum weight %g at exponent %d beyond the headroom budget", w, exp)
		}
		cs := nd.readCipherVector(d, 2*r.sideCiphers, "push-sum vector")
		var err error
		if means, err = gossip.NewState[Cipher](r.ring, cs, w); err != nil {
			d.Fail(err)
		} else {
			means.Exp = exp
			// Mirror stepAssign's construction: the restored values are
			// freshly cloned and exclusively owned, so the in-place hot
			// path stays sound under the same conditions.
			if r.mut != nil {
				means.SetMutable()
			}
			if r.batchHint > 0 {
				means.ReserveBatch(r.batchHint)
			}
		}
	}

	var pendingCT []Cipher
	if d.Bool() {
		pendingCT = nd.readCipherVector(d, r.sideCiphers, "pending vector")
		if means == nil {
			d.Failf("pending ciphertexts without push-sum state")
		}
	}

	// The decrypt-phase collections are empty outside that phase; they
	// are decoded either way and dropped at commit. Each is rebuilt in
	// sorted order whatever order the snapshot lists it in.
	decrypt := ph == phaseDecrypt
	n := d.Count(parties)
	if n > 0 && !decrypt {
		d.Failf("partials outside decrypt phase")
	}
	var partials [][]Partial
	for ; n > 0; n-- {
		idx := int(d.U32())
		if idx < 1 || idx > parties {
			d.Failf("partial index %d outside [1, %d]", idx, parties)
		}
		ps, err := nd.codec.UnmarshalPartialValues(idx, d.Bytes())
		d.Fail(err)
		if len(ps) != r.sideCiphers {
			d.Failf("partial set of %d values, want %d", len(ps), r.sideCiphers)
			continue
		}
		i, dup := slices.BinarySearchFunc(partials, idx, cmpPartials)
		if dup {
			d.Failf("duplicate partial index %d", idx)
			continue
		}
		partials = slices.Insert(partials, i, ps)
	}

	nAsked := d.Count(r.population)
	if nAsked > 0 && !decrypt {
		d.Failf("asked peers outside decrypt phase")
	}
	var asked []p2p.NodeID
	for n = nAsked; n > 0; n-- {
		id := p2p.NodeID(d.U32())
		if int(id) >= r.population {
			d.Failf("asked id %d outside population %d", id, r.population)
		}
		i, dup := slices.BinarySearch(asked, id)
		if dup {
			d.Failf("duplicate asked id %d", id)
			continue
		}
		asked = slices.Insert(asked, i, id)
	}

	n = d.Count(nAsked)
	if n > 0 && !decrypt {
		d.Failf("outstanding asks outside decrypt phase")
	}
	var outstanding []pendingAsk
	for ; n > 0; n-- {
		id := p2p.NodeID(d.U32())
		ttl := int(d.U32())
		_, isAsked := slices.BinarySearch(asked, id)
		i, dup := slices.BinarySearchFunc(outstanding, id, cmpAsk)
		switch {
		case ttl < 1 || ttl > askTTL:
			d.Failf("outstanding ttl %d outside [1, %d]", ttl, askTTL)
		case !isAsked:
			d.Failf("outstanding ask for un-asked peer %d", id)
		case dup:
			d.Failf("duplicate outstanding id %d", id)
		default:
			outstanding = slices.Insert(outstanding, i, pendingAsk{peer: id, ttl: ttl})
		}
	}

	// The history is what this run disclosed: one record per finished
	// iteration, in schedule order, each drawn at its scheduled epsilon.
	n = d.Count(r.params.Iterations)
	history := make([]IterationResult, 0, n)
	for prev := -1; n > 0; n-- {
		var rec IterationResult
		rec.Iteration = int(d.U32())
		rec.Epsilon = d.F64()
		switch {
		case rec.Iteration <= prev || rec.Iteration >= len(r.epsSched):
			d.Failf("history iteration %d not ascending past %d inside a schedule of %d", rec.Iteration, prev, len(r.epsSched))
		case math.Float64bits(rec.Epsilon) != math.Float64bits(r.epsSched[rec.Iteration]):
			d.Failf("history epsilon %g is not iteration %d's scheduled %g", rec.Epsilon, rec.Iteration, r.epsSched[rec.Iteration])
		}
		prev = rec.Iteration
		rec.PerturbedCentroids = d.Floats(r.params.K, r.dim)
		if counts := d.Floats(1, r.params.K); counts != nil {
			rec.PerturbedCounts = counts[0]
		}
		rec.PerturbedInertia = d.F64()
		if rec.Assignment = int(d.U32()); rec.Assignment >= r.params.K {
			d.Failf("history assignment %d outside K=%d", rec.Assignment, r.params.K)
		}
		rec.Displacement = d.F64()
		rec.DecryptFailed = d.Bool()
		rec.CompletedAtCycle = int(d.U32())
		history = append(history, rec)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", errSnapshot, err)
	}
	if !decrypt {
		partials, asked, outstanding = nil, nil, nil
	}

	// Everything validated — commit.
	p.rngSrc.SetState(h.rngState)
	p.phase = ph
	p.iter = iter
	p.roundsDone = roundsDone
	p.assignment = assignment
	p.waitCycles = waitCycles
	p.staleDrops = staleDrops
	p.decryptFail = decryptFail
	p.diptych.Iteration = dipIter
	p.diptych.Centroids = centroids
	p.diptych.Means = means
	p.clearDecrypt()
	p.pendingCT = pendingCT
	p.partials = partials
	p.asked = asked
	p.outstanding = outstanding
	p.history = history
	return nil
}
