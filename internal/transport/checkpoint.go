package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"chiaroscuro/internal/wire"
)

// checkpoint.go persists a node's complete resumable state between
// epochs: the core participant snapshot (which embeds this node's key
// share on the Damgård–Jurik backend), the peer sampler's RNG state,
// every link's sequence numbers and retransmit ring, and the barrier
// buffers (parked payloads, ticks, leftover ceremony backlog). A daemon
// SIGKILLed mid-run restarts with -resume, restores this file, replays
// the resume handshake against the survivors, and continues the run
// with disclosed histories bit-identical to an uninterrupted one.
//
// The file is written atomically (temp + fsync + rename + directory
// fsync), so a crash during the write leaves the previous checkpoint
// intact, never a torn file.

const (
	ckptMagic uint32 = 0xC1A8C4B7
	// ckptVersion 2: parked gossip payloads carry the push-sum exponent
	// and the embedded core snapshot is v3. Version 1 files are refused
	// rather than misread.
	ckptVersion uint32 = 2
	// ckptMaxCount bounds every element count read from a checkpoint
	// before allocation, so corrupt or adversarial length fields cannot
	// demand unbounded memory.
	ckptMaxCount = 1 << 20
)

// errCheckpoint prefixes every decode failure.
var errCheckpoint = errors.New("transport: invalid checkpoint")

func ckptErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheckpoint, fmt.Sprintf(format, args...))
}

// linkState is one link's checkpointed sequencing state.
type linkState struct {
	outSeq uint64
	inSeq  uint64
	pruned uint64
	ring   []sentFrame
}

// checkpoint is the decoded form of one checkpoint file.
type checkpoint struct {
	fingerprint    uint64
	id             int
	population     int
	nextEpoch      int
	barrierPending bool
	samplerState   uint64
	coreSnap       []byte
	links          map[int]linkState
	pendingData    map[int]map[int][][]byte
	ticks          map[int]map[int]bool
	left           map[int]bool
	backlog        []inMsg
}

func checkpointPath(cfg Config) string {
	return filepath.Join(cfg.CheckpointDir, fmt.Sprintf("%d.ckpt", cfg.ID))
}

func encodeCheckpoint(ck *checkpoint) []byte {
	buf := make([]byte, 0, 1024+len(ck.coreSnap))
	buf = wire.AppendU32(buf, ckptMagic)
	buf = wire.AppendU32(buf, ckptVersion)
	buf = wire.AppendU64(buf, ck.fingerprint)
	buf = wire.AppendU32(buf, uint32(ck.id))
	buf = wire.AppendU32(buf, uint32(ck.population))
	buf = wire.AppendU32(buf, uint32(ck.nextEpoch))
	buf = wire.AppendBool(buf, ck.barrierPending)
	buf = wire.AppendU64(buf, ck.samplerState)
	buf = wire.AppendBytes(buf, ck.coreSnap)

	peers := slices.Sorted(maps.Keys(ck.links))
	buf = wire.AppendU32(buf, uint32(len(peers)))
	for _, id := range peers {
		ls := ck.links[id]
		buf = wire.AppendU32(buf, uint32(id))
		buf = wire.AppendU64(buf, ls.outSeq)
		buf = wire.AppendU64(buf, ls.inSeq)
		buf = wire.AppendU64(buf, ls.pruned)
		buf = wire.AppendU32(buf, uint32(len(ls.ring)))
		for _, sf := range ls.ring {
			buf = wire.AppendU64(buf, sf.seq)
			buf = wire.AppendU32(buf, uint32(sf.epoch))
			buf = wire.AppendBytes(buf, sf.frame)
		}
	}

	epochs := slices.Sorted(maps.Keys(ck.pendingData))
	buf = wire.AppendU32(buf, uint32(len(epochs)))
	for _, e := range epochs {
		buf = wire.AppendU32(buf, uint32(e))
		senders := slices.Sorted(maps.Keys(ck.pendingData[e]))
		buf = wire.AppendU32(buf, uint32(len(senders)))
		for _, s := range senders {
			buf = wire.AppendU32(buf, uint32(s))
			buf = wire.AppendU32(buf, uint32(len(ck.pendingData[e][s])))
			for _, p := range ck.pendingData[e][s] {
				buf = wire.AppendBytes(buf, p)
			}
		}
	}

	epochs = slices.Sorted(maps.Keys(ck.ticks))
	buf = wire.AppendU32(buf, uint32(len(epochs)))
	for _, e := range epochs {
		buf = wire.AppendU32(buf, uint32(e))
		senders := slices.Sorted(maps.Keys(ck.ticks[e]))
		buf = wire.AppendU32(buf, uint32(len(senders)))
		for _, s := range senders {
			buf = wire.AppendU32(buf, uint32(s))
			buf = wire.AppendBool(buf, ck.ticks[e][s])
		}
	}

	leftIDs := slices.Sorted(maps.Keys(ck.left))
	buf = wire.AppendU32(buf, uint32(len(leftIDs)))
	for _, id := range leftIDs {
		buf = wire.AppendU32(buf, uint32(id))
	}

	buf = wire.AppendU32(buf, uint32(len(ck.backlog)))
	for _, m := range ck.backlog {
		buf = wire.AppendU32(buf, uint32(m.from))
		buf = wire.AppendU32(buf, uint32(m.kind))
		buf = wire.AppendU32(buf, uint32(m.epoch))
		buf = wire.AppendBool(buf, m.done)
		buf = wire.AppendBytes(buf, m.payload)
	}
	return buf
}

// decodeCheckpoint parses and validates one checkpoint file. It is
// hardened like the wire decoders: arbitrary bytes produce an error,
// never a panic or unbounded allocation (FuzzDecodeCheckpoint).
func decodeCheckpoint(b []byte) (*checkpoint, error) {
	d := wire.NewDecoder(b)
	ck := readCheckpoint(d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", errCheckpoint, err)
	}
	return ck, nil
}

// readCheckpoint reads one checkpoint from d; d's error is the verdict.
func readCheckpoint(d *wire.Decoder) *checkpoint {
	if magic := d.U32(); magic != ckptMagic {
		d.Failf("bad magic 0x%08x", magic)
	}
	if version := d.U32(); version != ckptVersion {
		d.Failf("version %d, want %d", version, ckptVersion)
	}
	ck := &checkpoint{
		links:       map[int]linkState{},
		pendingData: map[int]map[int][][]byte{},
		ticks:       map[int]map[int]bool{},
		left:        map[int]bool{},
	}
	ck.fingerprint = d.U64()
	ck.id = int(d.U32())
	ck.population = int(d.U32())
	pop := ck.population
	if pop < 2 || pop > ckptMaxCount {
		d.Failf("population %d out of range", pop)
	}
	if ck.id >= pop {
		d.Failf("id %d outside population %d", ck.id, pop)
	}
	ck.nextEpoch = int(d.U32())
	ck.barrierPending = d.Bool()
	ck.samplerState = d.U64()
	ck.coreSnap = d.Bytes()

	// peer reads a peer id inside the population (other than this
	// node's own when notSelf is set).
	peer := func(what string, notSelf bool) int {
		v := int(d.U32())
		if v >= pop || notSelf && v == ck.id {
			d.Failf("%s %d out of range", what, v)
		}
		return v
	}

	for n := d.Count(pop - 1); n > 0; n-- {
		id := peer("link peer", true)
		if _, dup := ck.links[id]; dup {
			d.Failf("duplicate link peer %d", id)
		}
		ls := linkState{outSeq: d.U64(), inSeq: d.U64(), pruned: d.U64()}
		prev := ls.pruned
		for j := d.Count(ckptMaxCount); j > 0; j-- {
			sf := sentFrame{seq: d.U64(), epoch: int(d.U32()), frame: d.Bytes()}
			switch {
			case sf.seq <= prev:
				d.Failf("ring seq %d not ascending past %d", sf.seq, prev)
			case len(sf.frame) < 8:
				d.Failf("ring frame of %d bytes", len(sf.frame))
			case binary.BigEndian.Uint64(sf.frame) != sf.seq:
				d.Failf("ring frame seq %d does not match entry %d", binary.BigEndian.Uint64(sf.frame), sf.seq)
			}
			prev = sf.seq
			ls.ring = append(ls.ring, sf)
		}
		if len(ls.ring) > 0 && prev > ls.outSeq {
			d.Failf("ring seq %d beyond outSeq %d", prev, ls.outSeq)
		}
		ck.links[id] = ls
	}

	for n := d.Count(ckptMaxCount); n > 0; n-- {
		e := int(d.U32())
		if _, dup := ck.pendingData[e]; dup {
			d.Failf("duplicate payload epoch %d", e)
		}
		bySender := map[int][][]byte{}
		for m := d.Count(pop - 1); m > 0; m-- {
			s := peer("payload sender", false)
			if _, dup := bySender[s]; dup {
				d.Failf("duplicate payload sender %d", s)
			}
			var payloads [][]byte
			for k := d.Count(ckptMaxCount); k > 0; k-- {
				payloads = append(payloads, d.Bytes())
			}
			bySender[s] = payloads
		}
		ck.pendingData[e] = bySender
	}

	for n := d.Count(ckptMaxCount); n > 0; n-- {
		e := int(d.U32())
		if _, dup := ck.ticks[e]; dup {
			d.Failf("duplicate tick epoch %d", e)
		}
		bySender := map[int]bool{}
		for m := d.Count(pop - 1); m > 0; m-- {
			s := peer("tick sender", false)
			if _, dup := bySender[s]; dup {
				d.Failf("duplicate tick sender %d", s)
			}
			bySender[s] = d.Bool()
		}
		ck.ticks[e] = bySender
	}

	for n := d.Count(pop - 1); n > 0; n-- {
		ck.left[peer("departed peer", false)] = true
	}

	for n := d.Count(ckptMaxCount); n > 0; n-- {
		m := inMsg{from: peer("backlog sender", true)}
		if kind := d.U32(); kind == uint32(mtTick) || kind == uint32(mtData) {
			m.kind = byte(kind)
		} else {
			d.Failf("backlog kind 0x%02x", kind)
		}
		m.epoch = int(d.U32())
		m.done = d.Bool()
		m.payload = d.Bytes()
		ck.backlog = append(ck.backlog, m)
	}
	return ck
}

// writeCheckpoint captures the node's full resumable state and writes
// it atomically to the checkpoint file.
func (n *node) writeCheckpoint(nextEpoch int, barrierPending bool) error {
	snap, err := n.core.Snapshot()
	if err != nil {
		return fmt.Errorf("transport: checkpoint: %w", err)
	}
	ck := &checkpoint{
		fingerprint:    n.fp,
		id:             n.cfg.ID,
		population:     n.cfg.Population,
		nextEpoch:      nextEpoch,
		barrierPending: barrierPending,
		samplerState:   n.sampler.State(),
		coreSnap:       snap,
		links:          map[int]linkState{},
		pendingData:    n.pendingData,
		ticks:          n.ticks,
		left:           n.left,
		backlog:        n.backlog,
	}
	for id, l := range n.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		// inSeq is the PROCESSED watermark, not the read loop's accept
		// watermark: frames accepted but still queued in n.in would be
		// lost by a restart, so the resume handshake must re-request
		// them from the peer's ring.
		ls := linkState{outSeq: l.outSeq, inSeq: n.procSeq[id], pruned: l.pruned}
		ls.ring = append(ls.ring, l.ring...)
		l.mu.Unlock()
		ck.links[id] = ls
	}
	if err := writeFileAtomic(checkpointPath(n.cfg), encodeCheckpoint(ck)); err != nil {
		return fmt.Errorf("transport: checkpoint: %w", err)
	}
	n.cfg.logf("node %d checkpointed epoch %d (barrier pending: %v)", n.cfg.ID, nextEpoch, barrierPending)
	return nil
}

// loadCheckpoint reads and validates the checkpoint for this node and
// run configuration.
func loadCheckpoint(path string, cfg Config, fp uint64) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("transport: resume: %w", err)
	}
	ck, err := decodeCheckpoint(b)
	if err != nil {
		return nil, err
	}
	if ck.fingerprint != fp {
		return nil, ckptErr("checkpoint belongs to a different run configuration")
	}
	if ck.id != cfg.ID {
		return nil, ckptErr("checkpoint belongs to node %d, not %d", ck.id, cfg.ID)
	}
	if ck.population != cfg.Population {
		return nil, ckptErr("checkpoint population %d, want %d", ck.population, cfg.Population)
	}
	return ck, nil
}

// restoreFromCheckpoint installs the checkpointed transport state into
// a freshly built node (links exist but carry no connections yet).
// Every link starts down: formMeshResume reconnects them all.
func (n *node) restoreFromCheckpoint(ck *checkpoint) {
	n.startEpoch = ck.nextEpoch
	n.barrierPending = ck.barrierPending
	n.pendingData = ck.pendingData
	n.ticks = ck.ticks
	n.left = ck.left
	n.backlog = ck.backlog
	now := time.Now()
	for id, l := range n.links {
		if l == nil {
			continue
		}
		ls := ck.links[id]
		l.mu.Lock()
		l.outSeq = ls.outSeq
		l.inSeq = ls.inSeq
		l.pruned = ls.pruned
		l.ring = ls.ring
		l.down = true
		l.downSince = now
		l.mu.Unlock()
		n.procSeq[id] = ls.inSeq
	}
}

// writeFileAtomic writes data to path with crash-safe durability: the
// bytes are written to a temp file in the same directory, fsynced,
// renamed over the target, and the directory entry itself fsynced. A
// reader therefore sees either the old complete file or the new one —
// never a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
