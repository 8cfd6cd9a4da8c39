package transport

import "chiaroscuro/internal/wire"

// Envelope layer: every frame on a mesh connection carries one message,
// tagged with a one-byte type. Handshake messages (hello/welcome/
// reject) appear once per connection at dial time; tick, data and bye
// flow for the lifetime of the mesh. Fields use the wire package's
// codec (docs/WIRE.md), so the fuzzed hardening of that layer covers
// the envelope too.

const (
	// helloMagic identifies a Chiaroscuro mesh connection; a dialer
	// that opens with anything else is rejected before any state is
	// allocated for it.
	helloMagic uint32 = 0xC1A805C0
	// meshVersion is the envelope protocol version. Version 2 added
	// per-link frame sequencing and the resume handshake; version 3
	// gossip payloads carry the push-sum exponent, so a mixed mesh is
	// refused at the handshake instead of failing its first decode.
	meshVersion uint32 = 3
)

// Message types.
const (
	mtHello    byte = 0x01 // dialer's join handshake
	mtWelcome  byte = 0x02 // acceptor's join acknowledgment
	mtReject   byte = 0x03 // acceptor's refusal (reason string)
	mtTick     byte = 0x04 // epoch barrier: sender finished stepping this epoch
	mtData     byte = 0x05 // protocol payload tagged with its send epoch
	mtBye      byte = 0x06 // orderly leave after termination
	mtKey      byte = 0x07 // key-ceremony artifact (round-tagged, pre-epoch)
	mtResume   byte = 0x08 // dialer's reconnect handshake after a link drop
	mtResumeOK byte = 0x09 // acceptor's reconnect acknowledgment
)

// Key-ceremony rounds inside an mtKey frame, mirroring the dkg
// package's three phases.
const (
	keyRoundDeal          = 1
	keyRoundResponse      = 2
	keyRoundJustification = 3
)

// hello is the join handshake: who is dialing, how big the dialer
// thinks the run is, and a fingerprint of its full run configuration.
// Population and fingerprint mismatches are rejected at accept time —
// a process built from different parameters must not join the mesh.
type hello struct {
	ID          int
	Population  int
	Fingerprint uint64
}

func marshalHello(h hello) []byte {
	buf := []byte{mtHello}
	buf = wire.AppendU32(buf, helloMagic)
	buf = wire.AppendU32(buf, meshVersion)
	buf = wire.AppendU32(buf, uint32(h.ID))
	buf = wire.AppendU32(buf, uint32(h.Population))
	return wire.AppendU64(buf, h.Fingerprint)
}

// readGreeting reads the magic, version, id, population and
// fingerprint that open both hello and resume.
func readGreeting(d *wire.Decoder, what string) (id, pop int, fp uint64) {
	if magic := d.U32(); magic != helloMagic {
		d.Failf("transport: bad %s magic 0x%08x", what, magic)
	}
	if version := d.U32(); version != meshVersion {
		d.Failf("transport: peer speaks mesh version %d, want %d", version, meshVersion)
	}
	return int(d.U32()), int(d.U32()), d.U64()
}

func parseHello(body []byte) (hello, error) {
	d := wire.NewDecoder(body)
	var h hello
	h.ID, h.Population, h.Fingerprint = readGreeting(d, "hello")
	return h, d.Done()
}

func marshalWelcome(id int) []byte {
	return wire.AppendU32([]byte{mtWelcome}, uint32(id))
}

func parseWelcome(body []byte) (int, error) {
	d := wire.NewDecoder(body)
	id := d.U32()
	return int(id), d.Done()
}

func marshalReject(reason string) []byte {
	return wire.AppendBytes([]byte{mtReject}, []byte(reason))
}

func parseReject(body []byte) (string, error) {
	d := wire.NewDecoder(body)
	reason := d.Bytes()
	return string(reason), d.Done()
}

// marshalTick is the one envelope with an unframed field: the done
// flag travels as a single trailing byte after the epoch.
func marshalTick(epoch int, done bool) []byte {
	buf := wire.AppendU32([]byte{mtTick}, uint32(epoch))
	if done {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func parseTick(body []byte) (epoch int, done bool, err error) {
	d := wire.NewDecoder(body)
	e := d.U32()
	flag := d.Rest()
	if len(flag) != 1 || flag[0] > 1 {
		d.Failf("transport: bad tick done flag % x", flag)
	}
	if err := d.Done(); err != nil {
		return 0, false, err
	}
	return int(e), flag[0] == 1, nil
}

func marshalData(epoch int, payload []byte) []byte {
	buf := wire.AppendU32([]byte{mtData}, uint32(epoch))
	return wire.AppendBytes(buf, payload)
}

func parseData(body []byte) (epoch int, payload []byte, err error) {
	d := wire.NewDecoder(body)
	e := d.U32()
	payload = d.Bytes()
	return int(e), payload, d.Done()
}

func marshalBye() []byte { return []byte{mtBye} }

// marshalKey wraps one dkg wire artifact (deal, response or
// justification — themselves fuzz-hardened encodings) in a
// round-tagged ceremony frame.
func marshalKey(round int, payload []byte) []byte {
	buf := wire.AppendU32([]byte{mtKey}, uint32(round))
	return wire.AppendBytes(buf, payload)
}

func parseKey(body []byte) (round int, payload []byte, err error) {
	d := wire.NewDecoder(body)
	r := d.U32()
	if r < keyRoundDeal || r > keyRoundJustification {
		d.Failf("transport: unknown key-ceremony round %d", r)
	}
	payload = d.Bytes()
	return int(r), payload, d.Done()
}

// resume is the reconnect handshake: after a link drop, the dialing
// side re-identifies itself (same magic/version/fingerprint checks as
// hello) and announces the highest frame sequence number it has seen
// from the peer, so the peer can retransmit exactly the frames that
// were lost in flight. LastSeq is 0 when nothing has been received.
type resume struct {
	ID          int
	Population  int
	Fingerprint uint64
	LastSeq     uint64
}

func marshalResume(r resume) []byte {
	buf := []byte{mtResume}
	buf = wire.AppendU32(buf, helloMagic)
	buf = wire.AppendU32(buf, meshVersion)
	buf = wire.AppendU32(buf, uint32(r.ID))
	buf = wire.AppendU32(buf, uint32(r.Population))
	buf = wire.AppendU64(buf, r.Fingerprint)
	return wire.AppendU64(buf, r.LastSeq)
}

func parseResume(body []byte) (resume, error) {
	d := wire.NewDecoder(body)
	var r resume
	r.ID, r.Population, r.Fingerprint = readGreeting(d, "resume")
	r.LastSeq = d.U64()
	return r, d.Done()
}

// marshalResumeOK acknowledges a resume: the acceptor identifies
// itself and announces its own lastSeqSeen so both sides retransmit.
func marshalResumeOK(id int, lastSeq uint64) []byte {
	buf := wire.AppendU32([]byte{mtResumeOK}, uint32(id))
	return wire.AppendU64(buf, lastSeq)
}

func parseResumeOK(body []byte) (id int, lastSeq uint64, err error) {
	d := wire.NewDecoder(body)
	i := d.U32()
	lastSeq = d.U64()
	return int(i), lastSeq, d.Done()
}
