package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/vecpool"
)

// phase is the participant's position inside one iteration of the
// execution sequence.
type phase int

const (
	phaseAssign  phase = iota // Step 1 (local)
	phaseGossip               // Step 2a+2b (distributed)
	phaseDecrypt              // Step 2c+2d (noise addition + collaborative decryption)
	phaseDone                 // terminated (converged or out of iterations)
)

// gossipPayload is one push-sum exchange. It carries the iteration tag and
// the perturbed centroids of that iteration so that late participants can
// synchronize (Sec. II.B: "the late participants simply synchronize on
// the latest iteration during their gossip exchanges"). The fused vector
// transports the encrypted means and the encrypted noise shares together
// under a single push-sum weight.
type gossipPayload struct {
	Iter      int
	Centroids [][]float64
	Msg       *gossip.Message[Cipher]
}

// decryptRequest asks a peer for partial decryptions of the requester's
// perturbed-mean ciphertexts. On the hot path it also posts reply: the
// requester-owned response the peer fills and sends back (decryptAsk).
type decryptRequest struct {
	Iter    int
	Ciphers []Cipher
	reply   *decryptResponse
}

// decryptResponse carries one partial decryption per requested cipher,
// all under the responder's key-share index.
type decryptResponse struct {
	Iter     int
	Partials []Partial
}

// decryptAsk is one posted ask of the hot path's request window: the
// request sent to one peer and the reply storage that peer writes its
// partials into. The requester owns both, so serving an ask allocates
// nothing.
type decryptAsk struct {
	req  decryptRequest
	resp decryptResponse
}

// pendingAsk is one in-flight ask of the request window: the peer and
// its remaining patience in decrypt activations.
type pendingAsk struct {
	peer p2p.NodeID
	ttl  int
}

// Diptych is the twofold data structure of Sec. II.B: the cleartext but
// differentially-private centroids on one side, and the encrypted means
// under gossip aggregation on the other.
type Diptych struct {
	// Iteration tags the diptych; all messages carry it.
	Iteration int
	// Centroids is the perturbed, publicly disclosed side.
	Centroids [][]float64
	// Means is the encrypted side: the fused push-sum state over
	// [cluster sums+counts | noise shares], never disclosed.
	Means *gossip.State[Cipher]
}

// IterationResult is what a participant retains about one finished
// iteration (read by the experiment harness).
type IterationResult struct {
	Iteration          int
	Epsilon            float64
	PerturbedCentroids [][]float64
	PerturbedCounts    []float64
	// PerturbedInertia is the disclosed mean squared distance of the
	// series to their closest centroid (only when Params.TrackInertia;
	// the footnote-2 quality-monitoring extension). NaN when disabled.
	PerturbedInertia float64
	Assignment       int // cluster this participant chose at Step 1
	Displacement     float64
	DecryptFailed    bool
	CompletedAtCycle int
}

// Env is the execution environment a participant interacts with during
// one activation. Two implementations exist: the cycle-driven simulator's
// p2p.Context (Peersim semantics, deterministic) and the asynchronous
// goroutine runtime's env (async.go — real concurrency, no global
// synchronization, as the paper's deployment model).
type Env interface {
	ID() p2p.NodeID
	Cycle() int
	PopulationSize() int
	AliveCount() int
	Inbox() []p2p.Message
	Send(to p2p.NodeID, payload any, bytes int) error
	RandomPeer() (p2p.NodeID, bool)
}

var _ Env = (*p2p.Context)(nil)

// participant is the per-node protocol: Chiaroscuro's "nextCycle"
// implementation.
type participant struct {
	id     p2p.NodeID
	series []float64
	run    *runShared // immutable run-wide configuration and services
	rng    *rand.Rand
	// rngSrc is the splitmix64 source behind rng, retained so Snapshot
	// can capture (and Restore reinstate) the complete RNG state: the
	// draw algorithms the participant uses buffer nothing on top of the
	// source, so one word IS the whole noise-randomness state.
	rngSrc *compactrng.Source

	// Mutable protocol state.
	phase      phase
	iter       int // current iteration, 0-based
	roundsDone int // gossip rounds completed this iteration
	diptych    Diptych
	assignment int
	waitCycles int
	pendingCT  []Cipher // perturbed ciphertexts awaiting decryption
	// The decrypt-phase collections are small slices kept sorted, so
	// they need no per-iteration maps and no sort before Combine.
	// partials holds the collected per-responder partial sets, ascending
	// by share index — the order CombineColumns takes. asked lists the
	// peers asked this iteration, ascending. outstanding tracks the
	// in-flight asks of the request window, ascending by peer: an ask
	// leaves the window when its response arrives or its TTL runs out
	// (an expired peer also leaves asked, to be re-asked later).
	partials    [][]Partial
	asked       []p2p.NodeID
	outstanding []pendingAsk
	// req is the classic path's request of the current iteration, shared
	// by all its asks and never mutated once sent.
	req         *decryptRequest
	history     []IterationResult
	staleDrops  int
	decryptFail int

	// Decrypt-phase traffic accounting (summed into the trace).
	decryptReqs      int
	decryptReqBytes  int64
	decryptRespBytes int64

	// The decrypt-service memo: the last (iteration, cipher-set) this
	// participant computed partials for, keyed by the identity of the
	// request's cipher slice. servedCiphers holds a strong reference to
	// the cached request's slice so its address cannot be recycled while
	// the entry lives — without it, a freed requester slice could alias a
	// new same-iteration request and serve it stale partials.
	servedIter    int
	servedCiphers []Cipher
	servedParts   []Partial
	servedHits    int64

	// byz, when non-nil, makes this participant a byzantine sender of
	// the planned kind (internal/simnet); replayPayload caches the first
	// gossip emission of a FaultReplay sender.
	byz           *simnet.NodeFault
	replayPayload *gossipPayload

	// absorbBatch is the reusable scratch for the batched gossip
	// exchange: same-iteration messages drained from one inbox are
	// absorbed in a single AbsorbAll pass.
	absorbBatch []*gossip.Message[Cipher]

	// gossipScratch/respScratch are the inbox classification buffers,
	// reused across activations so a steady-state cycle sorts its inbox
	// without allocating (references are cleared before the activation
	// returns, so recycled capacity never pins dead payloads).
	gossipScratch []*gossipPayload
	respScratch   []*decryptResponse

	// The remaining fields exist only on the zero-allocation hot path
	// (runShared.mut non-nil). vals/noises are the per-iteration
	// cleartext fused-contribution buffers; contrib is the arena-backed
	// cipher vector each iteration's push-sum state is rebuilt over;
	// emitMsgs/emitPayloads double-buffer the outgoing gossip message by
	// cycle parity — sound because the engine is bulk-synchronous: a
	// message emitted at cycle c is consumed (absorbed, dropped and
	// counted, or cleared by a crash) by the end of cycle c+1, and the
	// same-parity buffer is not written again before cycle c+2. The
	// fault-plan features that would break that bound (delays, laggard
	// stalls, replaying byzantines) disable the hot path in prepareRun.
	vals, noises []float64
	contrib      []Cipher
	emitMsgs     [2]gossip.Message[Cipher]
	emitPayloads [2]gossipPayload
	// pendingBuf is the arena vector step 2c writes pendingCT into, and
	// asks[:nAsks] are this iteration's posted asks (see postAsk). Both
	// are reused from one iteration to the next under the same BSP
	// bound: every request of an iteration is served, and every reply
	// written, before the requester can enter its next decrypt phase.
	pendingBuf []Cipher
	asks       []decryptAsk
	nAsks      int

	// Both paths: plains/decoded are decodeAll's output buffers, and
	// scratch is the one big.Int that encodes (step 1) and sign-unwraps
	// (step 3) each coordinate in turn.
	plains  []*big.Int
	decoded []float64
	scratch big.Int
}

// runShared is configuration and services shared by all participants of
// one run (read-only after construction, except the thread-safe suite).
type runShared struct {
	params        Params
	dim           int
	population    int
	suite         CipherSuite
	ring          gossip.Ring[Cipher]
	codec         *fixedpoint.Codec
	plainMod      *big.Int
	halfMod       *big.Int // plainMod >> 1, cached for sign wrap/unwrap
	expBudget     int      // bound on a push-sum state's dyadic exponent
	epsSched      []float64
	noiseBound    float64
	vecLen        int                    // k*(dim+1): cluster sums and counts
	sideLen       int                    // vecLen (+1 when the inertia aggregate is tracked)
	sideCiphers   int                    // ciphertexts per side: sideLen, or ⌈sideLen/slots⌉ when packed
	layout        *fixedpoint.SlotLayout // slot packing of the encrypted side (nil = unpacked)
	decodeBound   float64                // max plausible |decoded| per coordinate
	centroidBytes int
	// validator is non-nil only when the fault plan contains byzantine
	// senders: incoming gossip messages are then validated cipher by
	// cipher before absorption (the wire-hardening path).
	validator cipherValidator
	// mut is the suite's in-place extension when the run qualifies for
	// the zero-allocation gossip hot path (accounted backend,
	// cycle-driven engine, no fault plan — see prepareRun); nil keeps
	// every participant on the classic allocating path.
	mut mutCipherSuite
	// batchHint, when positive, pre-sizes every participant's inbox
	// classification and absorb-batch scratch (and the push-sum batch
	// column) for that many messages, so no in-degree spike can ever
	// grow a buffer. Zero (all ordinary runs) lets the scratch converge
	// to its working capacity instead; only the allocation-measurement
	// harnesses pay the O(population·hint) to make "zero allocations"
	// provable rather than amortized.
	batchHint int
}

// NextCycle implements p2p.Protocol — the entry point Peersim (here
// internal/p2p) calls once per cycle, identical for all participants.
func (pt *participant) NextCycle(ctx *p2p.Context) {
	pt.step(ctx)
}

// step runs one activation against any execution environment.
func (pt *participant) step(ctx Env) {
	// Serve and sort the inbox first: decryption service is stateless
	// and always on; gossip drives the state machine. The classification
	// buffers are participant-owned scratch, valid for this activation
	// only.
	gossips := pt.gossipScratch[:0]
	responses := pt.respScratch[:0]
	for _, m := range ctx.Inbox() {
		switch pl := m.Payload.(type) {
		case *gossipPayload:
			gossips = append(gossips, pl)
		case *decryptRequest:
			pt.serveDecrypt(ctx, m.From, pl)
		case *decryptResponse:
			responses = append(responses, pl)
		}
	}
	pt.handleGossips(ctx, gossips)
	switch pt.phase {
	case phaseAssign:
		pt.stepAssign(ctx)
	case phaseGossip:
		pt.stepGossip(ctx)
	case phaseDecrypt:
		pt.stepDecrypt(ctx, responses)
	case phaseDone:
	}
	// Retain the grown capacity, release the payload references.
	for i := range gossips {
		gossips[i] = nil
	}
	for i := range responses {
		responses[i] = nil
	}
	pt.gossipScratch = gossips[:0]
	pt.respScratch = responses[:0]
}

// Reset implements p2p.Resetter: a node rejoining after a permanent
// failure starts from scratch and will late-sync on the next gossip
// message it receives. A participant that had already terminated stays
// terminated — its result is final and must not be recomputed (and
// re-spending the privacy budget on a re-disclosure would be unsound).
func (pt *participant) Reset() {
	if pt.phase == phaseDone {
		return
	}
	pt.phase = phaseAssign
	pt.roundsDone = 0
	pt.diptych.Means = nil
	pt.clearDecrypt()
	// A fresh pending vector: the iteration restarts, and a request for
	// it must not match a responder's memo of the previous attempt's.
	pt.pendingBuf = nil
	pt.waitCycles = 0
	pt.servedCiphers = nil
	pt.servedParts = nil
}

// clearDecrypt empties the decrypt-phase state, keeping the capacity
// of its buffers (references are cleared so they pin nothing).
func (pt *participant) clearDecrypt() {
	pt.pendingCT = nil
	clear(pt.partials)
	pt.partials = pt.partials[:0]
	pt.asked = pt.asked[:0]
	pt.outstanding = pt.outstanding[:0]
	pt.req = nil
	pt.nAsks = 0
}

// --- Step 1: assignment (local) -------------------------------------------

func (pt *participant) stepAssign(ctx Env) {
	centroids := pt.diptych.Centroids
	best, bestSq := 0, math.Inf(1)
	for j, c := range centroids {
		var acc float64
		for t := range pt.series {
			d := pt.series[t] - c[t]
			acc += d * d
		}
		if acc < bestSq {
			best, bestSq = j, acc
		}
	}
	pt.assignment = best

	// Build the fused contribution vector:
	//   [0 .. vecLen)            means side (sums then count per cluster)
	//   [vecLen .. sideLen)      optional inertia aggregate (footnote 2)
	//   [sideLen .. 2*sideLen)   noise shares for the same layout
	// The cleartext coordinates are assembled first and encrypted after —
	// per coordinate, or per slot group when the run is packed — so the
	// coordinate order (and hence the noise-share RNG consumption) is
	// identical either way, keeping packed and unpacked runs on the same
	// gossip trajectory.
	r := pt.run
	k := r.params.K
	per := r.dim + 1
	// The cleartext buffers are reusable scratch: fill() writes every
	// index (all k·per coordinates plus the optional inertia aggregate),
	// so stale values can never leak between iterations.
	if pt.vals == nil {
		pt.vals = make([]float64, r.sideLen)
		pt.noises = make([]float64, r.sideLen)
	}
	vals, noises := pt.vals, pt.noises
	scale := pt.noiseScale()
	nShares := ctx.AliveCount()
	if nShares < 2 {
		nShares = 2
	}
	fill := func(idx int, x float64) {
		vals[idx] = x
		noise := dp.NoiseShare(pt.rng, nShares, scale)
		if pt.byz != nil && pt.byz.Kind == simnet.FaultSkewNoise {
			// Byzantine noise skew: the share is scaled before the clamp,
			// so it stays wire-plausible (honest receivers cannot tell) —
			// factor 0 freerides on everyone else's noise, large factors
			// poison the disclosed aggregate.
			noise *= pt.byz.Factor
		}
		if noise > r.noiseBound {
			noise = r.noiseBound
		} else if noise < -r.noiseBound {
			noise = -r.noiseBound
		}
		noises[idx] = noise
	}
	for j := 0; j < k; j++ {
		for t := 0; t < per; t++ {
			var x float64
			if j == best {
				if t < r.dim {
					x = pt.series[t]
				} else {
					x = 1 // count coordinate
				}
			}
			fill(j*per+t, x)
		}
	}
	if r.params.TrackInertia {
		fill(r.sideLen-1, bestSq)
	}
	values, err := pt.encryptSides(vals, noises)
	if err != nil {
		// Headroom was validated up front; an error here is a
		// programming error worth failing loudly in simulation.
		panic(err)
	}
	st, err := gossip.NewState[Cipher](r.ring, values, 1)
	if err != nil {
		panic(err)
	}
	if r.mut != nil {
		// The state's values are this participant's own arena residues
		// (encryptSides wrote them in place), so the in-place hot path
		// is sound.
		st.SetMutable()
	}
	if r.batchHint > 0 {
		st.ReserveBatch(r.batchHint)
	}
	pt.diptych.Means = st
	pt.diptych.Iteration = pt.iter
	pt.roundsDone = 0
	pt.phase = phaseGossip
}

// noiseScale returns the Laplace scale b_i = sensitivity / ε_i for the
// current iteration. When the inertia aggregate is tracked, one
// individual additionally moves that aggregate by at most dim·MaxValue²,
// which enters the L1 sensitivity.
func (pt *participant) noiseScale() float64 {
	r := pt.run
	eps := r.epsSched[pt.iter]
	sens := dp.SumSensitivity(r.dim, r.params.MaxValue)
	if r.params.TrackInertia {
		sens += float64(r.dim) * r.params.MaxValue * r.params.MaxValue
	}
	return sens / eps
}

// encryptSides encrypts the fused contribution [values | noise shares]:
// one ciphertext per coordinate, or — when the run is packed — one per
// slot group, with the two sides packed under the same layout so the
// step-2c noise addition stays a slot-aligned homomorphic Add. On the
// hot path the residues are written into the participant's own arena
// vector (same values, same encryption order and count — only the
// allocation profile differs).
func (pt *participant) encryptSides(vals, noises []float64) ([]Cipher, error) {
	r := pt.run
	if r.mut != nil {
		return pt.encryptSidesInPlace(vals, noises)
	}
	out := make([]Cipher, 2*r.sideCiphers)
	if r.layout == nil {
		for i := range vals {
			ct, err := pt.encryptValue(vals[i])
			if err != nil {
				return nil, err
			}
			out[i] = ct
			nct, err := pt.encryptValue(noises[i])
			if err != nil {
				return nil, err
			}
			out[r.sideCiphers+i] = nct
		}
		return out, nil
	}
	for side, xs := range [2][]float64{vals, noises} {
		packed, err := pt.packSide(xs)
		if err != nil {
			return nil, err
		}
		for g, m := range packed {
			ct, err := r.suite.Encrypt(m)
			if err != nil {
				return nil, err
			}
			out[side*r.sideCiphers+g] = ct
		}
	}
	return out, nil
}

// encryptSidesInPlace is encryptSides writing into the participant's
// arena-backed contribution vector: the previous iteration's state
// shared these residues, but it is dropped in the same activation, and
// every in-flight message carries copies (EmitInto's anti-aliasing
// contract), so overwriting is safe.
func (pt *participant) encryptSidesInPlace(vals, noises []float64) ([]Cipher, error) {
	r := pt.run
	if pt.contrib == nil {
		v, err := r.mut.NewScratchVector(2 * r.sideCiphers)
		if err != nil {
			return nil, err
		}
		pt.contrib = v
	}
	out := pt.contrib
	if r.layout == nil {
		for i := range vals {
			m, err := pt.encodeValue(vals[i])
			if err != nil {
				return nil, err
			}
			if err := r.mut.EncryptInto(out[i], m); err != nil {
				return nil, err
			}
			m, err = pt.encodeValue(noises[i])
			if err != nil {
				return nil, err
			}
			if err := r.mut.EncryptInto(out[r.sideCiphers+i], m); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for side, xs := range [2][]float64{vals, noises} {
		packed, err := pt.packSide(xs)
		if err != nil {
			return nil, err
		}
		for g, m := range packed {
			if err := r.mut.EncryptInto(out[side*r.sideCiphers+g], m); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// packSide fixed-point-encodes one side of the contribution and packs
// it into biased slot groups. Unlike the unpacked path no modular sign
// wrap is needed: the per-slot bias keeps every field non-negative.
func (pt *participant) packSide(xs []float64) ([]*big.Int, error) {
	r := pt.run
	enc := make([]*big.Int, len(xs))
	for i, x := range xs {
		v, err := r.codec.Encode(x)
		if err != nil {
			return nil, err
		}
		enc[i] = v
	}
	return r.layout.Pack(enc)
}

// encodeValue fixed-point-encodes x into the plaintext ring, in the
// participant's scratch: the result is valid until the next encode, and
// both callers hand it straight to an encryption that copies it. The
// sign wrap runs in place against the cached M/2 (the per-coordinate hot
// form of fixedpoint.WrapSigned).
func (pt *participant) encodeValue(x float64) (*big.Int, error) {
	r := pt.run
	v := &pt.scratch
	if err := r.codec.EncodeInto(v, x); err != nil {
		return nil, err
	}
	if err := fixedpoint.WrapSignedInPlace(v, r.plainMod, r.halfMod); err != nil {
		return nil, err
	}
	return v, nil
}

// encryptValue fixed-point-encodes x into the plaintext ring and
// encrypts it.
func (pt *participant) encryptValue(x float64) (Cipher, error) {
	w, err := pt.encodeValue(x)
	if err != nil {
		return nil, err
	}
	return pt.run.suite.Encrypt(w)
}

// --- Step 2a/2b: gossip (distributed) --------------------------------------

func (pt *participant) stepGossip(ctx Env) {
	r := pt.run
	peer, ok := ctx.RandomPeer()
	if ok {
		var payload *gossipPayload
		if r.mut != nil {
			payload = pt.emitReused(ctx)
		} else {
			payload = &gossipPayload{
				Iter:      pt.iter,
				Centroids: pt.diptych.Centroids,
				Msg:       pt.diptych.Means.Emit(),
			}
		}
		if pt.byz != nil {
			// Byzantine senders only exist under a fault plan, which
			// forces the classic path — the corrupted payload may be
			// retained (replay) and must not live in a reused buffer.
			payload = pt.byzantinePayload(payload)
		}
		// Byte accounting from the actual ciphertext count of the
		// emitted message — not a recomputed 2·sideLen — so packed and
		// inertia-tracking runs report true wire bytes.
		bytes := len(payload.Msg.V)*r.suite.CipherBytes() + r.centroidBytes + 16
		_ = ctx.Send(peer, payload, bytes)
	}
	pt.roundsDone++
	if pt.roundsDone >= r.params.GossipRounds {
		pt.phase = phaseDecrypt
		pt.waitCycles = 0
		pt.clearDecrypt()
	}
}

// emitReused emits the push-sum half-share into the double-buffered
// outgoing message selected by cycle parity — the allocation-free emit
// of the hot path. The buffer written at cycle c was last written at
// cycle c-2; its previous occupant was consumed by the end of cycle c-1
// (the BSP bound documented on the participant fields), so the
// overwrite can never race an in-flight read.
func (pt *participant) emitReused(ctx Env) *gossipPayload {
	idx := ctx.Cycle() & 1
	msg := &pt.emitMsgs[idx]
	if msg.V == nil {
		v, err := pt.run.mut.NewScratchVector(len(pt.diptych.Means.V))
		if err != nil {
			panic(err) // arena sizing is validated at prepareRun time
		}
		msg.V = v
	}
	pt.diptych.Means.EmitInto(msg)
	pl := &pt.emitPayloads[idx]
	pl.Iter = pt.iter
	pl.Centroids = pt.diptych.Centroids
	pl.Msg = msg
	return pl
}

// byzantinePayload corrupts an outgoing gossip payload according to the
// participant's planned byzantine behaviour. The honest Emit already
// happened (the sender's own state splits either way), so a byzantine
// sender injects corruption into the network without gaining a
// privileged view of anyone else's state.
func (pt *participant) byzantinePayload(honest *gossipPayload) *gossipPayload {
	r := pt.run
	switch pt.byz.Kind {
	case simnet.FaultGarble:
		// Structurally valid ciphertexts of random residues under the
		// true weight: passes every wire check, poisons the aggregate —
		// receivers survive via the decode plausibility bound.
		fake := make([]Cipher, len(honest.Msg.V))
		for i := range fake {
			v := new(big.Int).Rand(pt.rng, r.plainMod)
			ct, err := r.suite.Encrypt(v)
			if err != nil {
				ct = honest.Msg.V[i]
			}
			fake[i] = ct
		}
		return &gossipPayload{
			Iter:      honest.Iter,
			Centroids: honest.Centroids,
			Msg:       &gossip.Message[Cipher]{V: fake, W: honest.Msg.W, Exp: honest.Msg.Exp},
		}
	case simnet.FaultMalform:
		// Malformed messages, alternating the failure mode per round:
		// wrong vector lengths (rejected by the dimension check), and
		// right-length vectors of invalid values under a non-finite
		// weight (rejected by the wire validation).
		if pt.roundsDone%2 == 0 {
			return &gossipPayload{
				Iter:      honest.Iter,
				Centroids: honest.Centroids,
				Msg:       &gossip.Message[Cipher]{V: honest.Msg.V[:len(honest.Msg.V)-1], W: honest.Msg.W, Exp: honest.Msg.Exp},
			}
		}
		bad := make([]Cipher, len(honest.Msg.V))
		for i := range bad {
			if i%2 == 0 {
				bad[i] = byzForeignCipher{} // foreign type for every suite
			} else {
				bad[i] = big.NewInt(0) // out of range for DJ, foreign for plain
			}
		}
		return &gossipPayload{
			Iter:      honest.Iter,
			Centroids: honest.Centroids,
			Msg:       &gossip.Message[Cipher]{V: bad, W: math.NaN()},
		}
	case simnet.FaultReplay:
		// Capture the first emission, then replay it verbatim forever:
		// same-iteration replays inflate push-sum mass, later ones hit
		// the stale-iteration drop path.
		if pt.replayPayload == nil {
			pt.replayPayload = &gossipPayload{
				Iter:      honest.Iter,
				Centroids: deepCopyMatrix(honest.Centroids),
				Msg:       &gossip.Message[Cipher]{V: append([]Cipher(nil), honest.Msg.V...), W: honest.Msg.W, Exp: honest.Msg.Exp},
			}
			return honest
		}
		return pt.replayPayload
	default: // FaultSkewNoise corrupts at assignment time, not here.
		return honest
	}
}

// byzForeignCipher is a value no cipher suite recognizes — the
// malformed-sender probe for the type-validation path.
type byzForeignCipher struct{}

// wireValid is the byzantine-hardening gate on incoming gossip: the
// push-sum weight must be finite, non-negative and population-bounded,
// weight and dyadic exponent within the headroom budget
// (dyadicInBudget), and every cipher must validate
// under the suite. Only runs when the fault plan declares byzantine
// senders (runShared.validator non-nil).
func (pt *participant) wireValid(m *gossip.Message[Cipher]) bool {
	if math.IsNaN(m.W) || math.IsInf(m.W, 0) || m.W < 0 || m.W > float64(pt.run.population) {
		return false
	}
	if !pt.run.dyadicInBudget(m.W, m.Exp) {
		return false
	}
	for _, c := range m.V {
		if pt.run.validator.ValidateCipher(c) != nil {
			return false
		}
	}
	return true
}

// handleGossips processes one activation's gossip inflow as a batched
// exchange: runs of messages absorbable under the current state are
// validated up front and folded into the push-sum state by a single
// AbsorbAll pass (which the accounted ring turns into allocation-free
// accumulator folds); a late-synchronization message flushes the run
// first, so the observable behaviour — including staleDrops accounting —
// is identical to absorbing the messages one by one in arrival order.
func (pt *participant) handleGossips(ctx Env, gs []*gossipPayload) {
	if len(gs) == 0 || pt.phase == phaseDone {
		return
	}
	r := pt.run
	batch := pt.absorbBatch[:0]
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := pt.diptych.Means.AbsorbAll(batch); err != nil {
			// Unreachable: the batch is validated message by message
			// below. Counted defensively rather than panicking.
			pt.staleDrops += len(batch)
		}
		for i := range batch {
			batch[i] = nil // do not pin absorbed messages until next use
		}
		batch = batch[:0]
	}
	for _, g := range gs {
		switch {
		case g.Iter == pt.iter && (pt.phase == phaseGossip || pt.phase == phaseDecrypt):
			if pt.phase == phaseDecrypt && pt.pendingCT != nil {
				// Our estimate is already frozen and under decryption;
				// absorbing now would desynchronize value and weight.
				pt.staleDrops++
				continue
			}
			if g.Msg == nil || len(g.Msg.V) != len(pt.diptych.Means.V) {
				pt.staleDrops++ // what Absorb would have rejected
				continue
			}
			if r.validator != nil && !pt.wireValid(g.Msg) {
				pt.staleDrops++ // byzantine wire input: rejected
				continue
			}
			batch = append(batch, g.Msg)
		case g.Iter > pt.iter:
			// Late synchronization: adopt the newer iteration's
			// centroids, redo the local assignment step, then absorb the
			// message. The payload is validated first — a malformed
			// iteration tag or centroid matrix must not be able to desync
			// (or panic) an honest node. Anything batched so far belongs
			// to the abandoned iteration's state and is folded in before
			// it is replaced.
			if g.Iter >= len(r.epsSched) || g.Msg == nil ||
				len(g.Msg.V) != 2*r.sideCiphers ||
				!validShape(g.Centroids, r.params.K, r.dim) ||
				(r.validator != nil && !pt.wireValid(g.Msg)) {
				// Malformed sync payloads (wrong-length vectors included)
				// must not be able to force the iteration jump — the
				// same-iteration path length-checks before absorbing, so
				// this path does too.
				pt.staleDrops++
				continue
			}
			flush()
			pt.iter = g.Iter
			pt.diptych.Centroids = deepCopyMatrix(g.Centroids)
			pt.phase = phaseAssign
			pt.stepAssign(ctx)
			if err := pt.diptych.Means.Absorb(g.Msg); err != nil {
				pt.staleDrops++
			}
		default:
			pt.staleDrops++ // stale iteration: drop
		}
	}
	flush()
	pt.absorbBatch = batch[:0]
}

// --- Step 2c/2d: noise addition + collaborative decryption ----------------

func (pt *participant) stepDecrypt(ctx Env, responses []*decryptResponse) {
	r := pt.run
	if pt.pendingCT == nil {
		pt.pendingCT = pt.perturbMeans()
		if pt.asked == nil {
			// First decrypt phase: size the collections for a fault-free
			// quorum — one wave of threshold asks, all answered — plus
			// room for a slow quorum's escalation.
			t := r.suite.Threshold()
			pt.partials = make([][]Partial, 0, t+1)
			pt.asked = make([]p2p.NodeID, 0, 2*t)
			pt.outstanding = make([]pendingAsk, 0, t+1)
		}
	}
	for _, resp := range responses {
		if resp.Iter != pt.iter || len(resp.Partials) != len(pt.pendingCT) {
			continue
		}
		if len(resp.Partials) == 0 {
			continue
		}
		idx := resp.Partials[0].Index
		// The responder's node id is its share index - 1: its ask (if
		// still in flight) is now settled.
		peer := p2p.NodeID(idx - 1)
		if i, ok := slices.BinarySearchFunc(pt.outstanding, peer, cmpAsk); ok {
			pt.outstanding = slices.Delete(pt.outstanding, i, i+1)
		}
		// Duplicate responses are idempotent: the first set is kept.
		if i, dup := slices.BinarySearchFunc(pt.partials, idx, cmpPartials); !dup {
			pt.partials = slices.Insert(pt.partials, i, resp.Partials)
		}
	}
	if len(pt.partials) >= r.suite.Threshold() {
		pt.finishIteration(ctx, false)
		return
	}
	// Step 2d: ask peers for partial decryptions, keeping only `missing`
	// asks in flight instead of blasting threshold+1 fresh peers every
	// cycle.
	missing := r.suite.Threshold() - len(pt.partials)
	pt.topUpAsks(ctx, missing, len(pt.pendingCT)*r.suite.CipherBytes()+8)
	pt.waitCycles++
	if pt.waitCycles > r.params.DecryptWindow {
		// Could not assemble a quorum (heavy churn): degrade by keeping
		// the current centroids and moving on.
		pt.decryptFail++
		pt.finishIteration(ctx, true)
	}
}

// cmpAsk orders the request window by peer id.
func cmpAsk(a pendingAsk, peer p2p.NodeID) int { return cmp.Compare(a.peer, peer) }

// cmpPartials orders collected partial sets by their share index.
func cmpPartials(set []Partial, idx int) int { return cmp.Compare(set[0].Index, idx) }

// perturbMeans is step 2c: homomorphically add the gossiped encrypted
// noise to the gossiped encrypted means, so the aggregate that will be
// disclosed is perturbed *before* anyone can decrypt it. The hot path
// writes the sums into the participant's own arena vector; the counted
// operations are the same one Add per cipher either way.
func (pt *participant) perturbMeans() []Cipher {
	r := pt.run
	v := pt.diptych.Means.V
	if r.mut == nil {
		cts := make([]Cipher, r.sideCiphers)
		for i := range cts {
			c, err := r.suite.Add(v[i], v[r.sideCiphers+i])
			if err != nil {
				panic(err)
			}
			cts[i] = c
		}
		return cts
	}
	if pt.pendingBuf == nil {
		buf, err := r.mut.NewScratchVector(r.sideCiphers)
		if err != nil {
			panic(err) // arena sizing is validated at prepareRun time
		}
		pt.pendingBuf = buf
	}
	for i, c := range pt.pendingBuf {
		if err := r.mut.SetCipher(c, v[i]); err != nil {
			panic(err)
		}
		if err := r.mut.AddCipherInPlace(c, v[r.sideCiphers+i]); err != nil {
			panic(err)
		}
	}
	return pt.pendingBuf
}

// askTTL is the patience of one in-flight decrypt ask, in decrypt
// activations. Fault-free, a request sent at cycle c is answered by the
// response processed at c+2; one spare activation absorbs drop/laggard
// jitter before the window re-provisions the ask elsewhere.
const askTTL = 3

// topUpAsks is the outstanding-request window: it ages out expired
// in-flight asks, then draws fresh un-asked peers — with replacement
// redraws, so already-asked draws don't silently shrink the wave — until
// the window again holds `missing` asks (progressively more as the
// quorum drags) or the candidate pool is exhausted.
func (pt *participant) topUpAsks(ctx Env, missing int, bytes int) {
	live := pt.outstanding[:0]
	for _, a := range pt.outstanding {
		if a.ttl <= 1 {
			// Expired unanswered: the peer may have crashed, rejoined, or
			// the messages may have dropped. Release it for re-asking —
			// duplicate responses are idempotent (the first partial set
			// is kept) — so a small pool under churn keeps its liveness
			// instead of exhausting permanently.
			if i, ok := slices.BinarySearch(pt.asked, a.peer); ok {
				pt.asked = slices.Delete(pt.asked, i, i+1)
			}
			continue
		}
		a.ttl--
		live = append(live, a)
	}
	pt.outstanding = live
	// Progressive escalation: each elapsed TTL without a settled quorum
	// widens the window by one, so dead or slow responders cannot
	// serialize the remaining waves — and a window burning toward its
	// deadline converges on the legacy discipline's redundancy instead
	// of failing lean.
	target := missing + pt.waitCycles/askTTL
	need := target - len(pt.outstanding)
	if need <= 0 {
		return
	}
	// Redraw budget: generous enough to find `need` fresh peers even when
	// most draws land on already-asked ones (small populations, long
	// waits), finite so an exhausted pool cannot loop forever.
	budget := 16*(need+1) + 8*len(pt.asked)
	for need > 0 && budget > 0 {
		budget--
		peer, ok := ctx.RandomPeer()
		if !ok {
			return
		}
		i, asked := slices.BinarySearch(pt.asked, peer)
		if asked {
			continue
		}
		pt.asked = slices.Insert(pt.asked, i, peer)
		j, _ := slices.BinarySearchFunc(pt.outstanding, peer, cmpAsk)
		pt.outstanding = slices.Insert(pt.outstanding, j, pendingAsk{peer: peer, ttl: askTTL})
		pt.decryptReqs++
		pt.decryptReqBytes += int64(bytes)
		_ = ctx.Send(peer, pt.askRequest(), bytes)
		need--
	}
}

// askRequest returns the request for one more ask of this iteration: a
// posted ask on the hot path, else the iteration's shared request.
func (pt *participant) askRequest() *decryptRequest {
	if pt.run.mut != nil {
		return pt.postAsk()
	}
	if pt.req == nil {
		pt.req = &decryptRequest{Iter: pt.iter, Ciphers: pt.pendingCT}
	}
	return pt.req
}

// postAsk hands out the next ask slot of the iteration, its reply
// storage included. Slots are reused across iterations but never within
// one: a slot's reply stays collected (or may still be written by a
// late responder) until the iteration ends. Growing allocates all-new
// slots and copies nothing: the posted ones stay where their asks point,
// since a responder may be writing a reply into one right now.
func (pt *participant) postAsk() *decryptRequest {
	r := pt.run
	if pt.nAsks == len(pt.asks) {
		n, sc := max(2*len(pt.asks), r.suite.Threshold()), r.sideCiphers
		asks := make([]decryptAsk, n)
		replies := make([]Partial, n*sc)
		for i := range asks {
			asks[i].resp.Partials = replies[i*sc : (i+1)*sc : (i+1)*sc]
		}
		pt.asks = asks
	}
	a := &pt.asks[pt.nAsks]
	pt.nAsks++
	a.req = decryptRequest{Iter: pt.iter, Ciphers: pt.pendingCT, reply: &a.resp}
	return &a.req
}

// serveDecrypt is the always-on decryption service: any alive participant
// contributes its partial decryptions on request. The partials of the
// last served (iteration, cipher-set) are memoized, so duplicate
// requests for the same ciphertexts (replays, retransmissions) are
// answered without redoing the per-cipher exponentiations. The memo key
// is the identity of the request's cipher slice — servedCiphers keeps
// that slice alive, so a match guarantees the cached partials belong to
// exactly these ciphertexts.
//
// A posted ask (req.reply set) is answered in the requester's own reply
// storage; other requests get a fresh response, sharing the memo's
// partials on a hit.
func (pt *participant) serveDecrypt(ctx Env, from p2p.NodeID, req *decryptRequest) {
	r := pt.run
	share := int(pt.id) + 1
	if share > r.suite.Parties() {
		return
	}
	resp := req.reply
	var parts []Partial
	if resp != nil && cap(resp.Partials) >= len(req.Ciphers) {
		parts = resp.Partials[:len(req.Ciphers)]
	} else {
		resp = &decryptResponse{}
	}
	if len(req.Ciphers) > 0 && pt.servedCiphers != nil &&
		pt.servedIter == req.Iter &&
		len(pt.servedCiphers) == len(req.Ciphers) &&
		&pt.servedCiphers[0] == &req.Ciphers[0] {
		pt.servedHits++
		if parts == nil {
			parts = pt.servedParts
		} else {
			copy(parts, pt.servedParts)
		}
	} else {
		if parts == nil {
			parts = make([]Partial, len(req.Ciphers))
		}
		if r.suite.PartialDecrypt(share, parts, req.Ciphers) != nil {
			return
		}
		pt.servedIter = req.Iter
		pt.servedCiphers = req.Ciphers
		pt.servedParts = parts
	}
	respBytes := len(parts)*r.suite.CipherBytes() + 8
	resp.Iter = req.Iter
	resp.Partials = parts
	if ctx.Send(from, resp, respBytes) == nil {
		pt.decryptRespBytes += int64(respBytes)
	}
}

// finishIteration completes Step 3 (convergence, local): decode the
// perturbed means, apply smoothing, decide and either iterate or stop.
func (pt *participant) finishIteration(ctx Env, failed bool) {
	r := pt.run
	k := r.params.K
	per := r.dim + 1
	newCentroids := deepCopyMatrix(pt.diptych.Centroids)
	counts := make([]float64, k)
	inertia := math.NaN()

	if !failed {
		decoded, err := pt.decodeAll()
		if err != nil {
			failed = true
			pt.decryptFail++
		} else {
			if r.params.TrackInertia {
				inertia = decoded[r.sideLen-1]
				if inertia < 0 {
					inertia = 0 // noise can push the estimate below zero
				}
			}
			// A cluster whose perturbed relative count is too small gets
			// its previous centroid kept (EmptyKeep policy): dividing by
			// a tiny count turns the Laplace noise on the sums into an
			// arbitrarily large distortion of the "mean". The guard is
			// noise-aware: the std of the noise on a relative sum
			// coordinate is √2·b/N, so requiring
			// count ≥ √2·b/(N·tol) caps the expected per-coordinate
			// noise of a disclosed mean at ~tol.
			minCount := 0.5 / float64(r.population)
			const meanNoiseTol = 0.1
			if g := math.Sqrt2 * pt.noiseScale() / (float64(r.population) * meanNoiseTol); g > minCount {
				minCount = g
			}
			// Never freeze genuinely large clusters: under extreme noise
			// a degraded update still beats never moving at all.
			if minCount > 0.25 {
				minCount = 0.25
			}
			for j := 0; j < k; j++ {
				cnt := decoded[j*per+r.dim]
				counts[j] = cnt
				if cnt < minCount {
					continue
				}
				// The row is this call's fresh copy: the mean is written
				// into it, and only a smoothing method allocates anew.
				c := newCentroids[j]
				for t := range c {
					c[t] = decoded[j*per+t] / cnt
				}
				newCentroids[j] = smooth(c, r.params.Smoothing)
				if r.params.MaxValue > 0 {
					timeseries.ClampInPlace(newCentroids[j], 0, r.params.MaxValue)
				}
			}
		}
	}

	disp := maxDisplacement(pt.diptych.Centroids, newCentroids)
	prevInertia := math.NaN()
	if n := len(pt.history); n > 0 {
		prevInertia = pt.history[n-1].PerturbedInertia
	}
	if pt.history == nil {
		pt.history = make([]IterationResult, 0, r.params.Iterations)
	}
	// The record shares the new centroid matrix with the diptych: a
	// centroid matrix is never mutated once built (every update, here and
	// at late synchronization, replaces it).
	pt.history = append(pt.history, IterationResult{
		Iteration:          pt.iter,
		Epsilon:            r.epsSched[pt.iter],
		PerturbedCentroids: newCentroids,
		PerturbedCounts:    counts,
		PerturbedInertia:   inertia,
		Assignment:         pt.assignment,
		Displacement:       disp,
		DecryptFailed:      failed,
		CompletedAtCycle:   ctx.Cycle(),
	})

	pt.diptych.Centroids = newCentroids
	pt.clearDecrypt()

	converged := r.params.ConvergeThreshold > 0 && disp <= r.params.ConvergeThreshold && !failed
	// Footnote-2 criterion: stop when the tracked quality plateaus.
	if th := r.params.InertiaStopThreshold; th > 0 && !failed &&
		!math.IsNaN(prevInertia) && !math.IsNaN(inertia) && prevInertia > 0 &&
		(prevInertia-inertia)/prevInertia < th {
		converged = true
	}
	if pt.iter+1 >= r.params.Iterations || converged {
		pt.phase = phaseDone
		return
	}
	pt.iter++
	pt.phase = phaseAssign
}

// ErrExpBudget reports a push-sum state outside the headroom budget
// (see dyadicInBudget): its plaintexts may have outgrown the headroom
// the run was validated for, so the iteration counts as a decrypt
// failure instead of decoding values that could have wrapped.
var ErrExpBudget = errors.New("core: push-sum state exceeds the headroom budget")

// dyadicInBudget is the one headroom test for push-sum states and
// gossip messages — decode, wire decoding, byzantine validation and
// snapshot restore all apply it. Every contribution enters with weight
// 1 and per-coordinate magnitude at most the run's bound; an emit
// halves w and bumps e, and an aligned absorb adds weights at the larger
// exponent, so a holder of weight w at exponent e keeps |V| ≤ w·2^e·bound.
// checkHeadroom and packedLayout charged population·2^expBudget·bound,
// hence the public condition w·2^e ≤ population·2^expBudget. Emits
// preserve w·2^e, so a message from an in-budget state is in budget;
// a fault-free cycle-engine state always is, its exponent staying
// within expBudget while its weight is at most the population. The positive
// weight also bounds e (a float64 weight is at least 2^-1074), and
// with it the alignment work one message can cause.
func (r *runShared) dyadicInBudget(w float64, e int) bool {
	return w > 0 && e >= 0 && math.Ldexp(w, e) <= math.Ldexp(float64(r.population), r.expBudget)
}

// decodeAll combines the collected partials for every pending ciphertext
// and decodes the fixed-point plaintexts to floats, already divided by
// the push-sum weight and the dyadic scale 2^Exp. It always returns
// sideLen coordinates: unpacked ciphertexts decode one each, packed ones
// unpack into their slots first. The result is the participant's
// decode buffer, valid until the next decode.
func (pt *participant) decodeAll() ([]float64, error) {
	r := pt.run
	st := pt.diptych.Means
	if pt.plains == nil {
		pt.plains = make([]*big.Int, r.sideCiphers)
		pt.decoded = make([]float64, r.sideLen)
	}
	plains := pt.plains[:len(pt.pendingCT)]
	// The opened values may be shared with the partials: drop them once
	// decoded, so the buffer pins nothing between iterations.
	defer clear(plains)
	// pt.partials is already in ascending share-index order — the
	// deterministic layout the responder-set cache keys (and OpCounts
	// profiles) depend on. The set is resolved once for the whole
	// pending vector instead of per ciphertext.
	if err := r.suite.CombineColumns(plains, pt.partials); err != nil {
		return nil, err
	}
	// Checked once the quorum has combined, where every other decode
	// failure surfaces, so a failed iteration costs and counts the same
	// whatever made it fail.
	if !r.dyadicInBudget(st.Weight(), st.Exp) {
		return nil, fmt.Errorf("%w: weight %g at exponent %d, budget %d·2^%d", ErrExpBudget, st.Weight(), st.Exp, r.population, r.expBudget)
	}
	denom := math.Ldexp(st.Weight(), st.Exp)
	if r.layout != nil {
		return pt.decodePacked(plains, denom)
	}
	out := pt.decoded[:len(plains)]
	for i, m := range plains {
		// Sign-unwrap a copy: m is read-only (see CombineColumns).
		signed := pt.scratch.Set(m)
		if err := fixedpoint.UnwrapSignedInPlace(signed, r.plainMod, r.halfMod); err != nil {
			return nil, err
		}
		v, err := pt.decodeSigned(signed, denom, i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// decodePacked unpacks the opened group plaintexts into sideLen
// coordinates. After the step-2c addition each slot holds
// trueSum + 2·bias·w·2^Exp: the means and noise halves travelled under
// the same dyadic push-sum coefficients (one fused state), each carrying
// one bias, so Unbias with bias weight 2·denom = 2w·2^Exp recovers
// exactly the signed aggregate the unpacked run would have decoded —
// which is why packed and unpacked accounted runs disclose bit-identical
// centroids.
func (pt *participant) decodePacked(plains []*big.Int, denom float64) ([]float64, error) {
	r := pt.run
	raw, err := r.layout.Unpack(plains, r.sideLen)
	if err != nil {
		return nil, err
	}
	out := make([]float64, r.sideLen)
	for i, f := range raw {
		signed, err := r.layout.Unbias(f, 2*denom)
		if err != nil {
			return nil, err
		}
		out[i], err = pt.decodeSigned(signed, denom, i)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeSigned converts an exact signed aggregate to its float64 mean
// estimate and applies the plausibility bound.
func (pt *participant) decodeSigned(signed *big.Int, denom float64, i int) (float64, error) {
	r := pt.run
	v := r.codec.Decode(signed) / denom
	if math.Abs(v) > r.decodeBound || math.IsNaN(v) {
		return 0, fmt.Errorf("core: decoded coordinate %d implausible (%g) — gossip invariant violated", i, v)
	}
	return v, nil
}

// --- helpers ---------------------------------------------------------------

func smooth(c []float64, spec SmoothingSpec) []float64 {
	switch spec.Method {
	case SmoothingMovingAverage:
		return timeseries.MovingAverage(c, spec.Window)
	case SmoothingExponential:
		out, err := timeseries.ExponentialSmoothing(c, spec.Alpha)
		if err != nil {
			return c
		}
		return out
	default:
		return c
	}
}

func maxDisplacement(a, b [][]float64) float64 {
	var max float64
	for j := range a {
		var acc float64
		for t := range a[j] {
			d := a[j][t] - b[j][t]
			acc += d * d
		}
		if d := math.Sqrt(acc); d > max {
			max = d
		}
	}
	return max
}

// validShape checks a received centroid matrix is exactly k×dim — the
// guard that keeps a corrupted late-sync payload from panicking the
// assignment step.
func validShape(m [][]float64, k, dim int) bool {
	if len(m) != k {
		return false
	}
	for _, row := range m {
		if len(row) != dim {
			return false
		}
	}
	return true
}

// deepCopyMatrix copies a centroid matrix into flat-backed row views:
// two allocations regardless of k (see internal/vecpool), down from
// k+1 with per-row copies — it runs once per iteration per participant
// (history entries, centroid adoption), which at large populations made
// it the dominant small-object source after the gossip hot path.
func deepCopyMatrix(m [][]float64) [][]float64 {
	return vecpool.CloneRows(m)
}
