package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/obs"
)

// writerPool recycles bitio.Writers across rounds and engines so that
// steady-state bit accounting is allocation-free.
var writerPool = sync.Pool{New: func() any { return bitio.NewWriter() }}

// wireBlock is one routing queue entry: one sender's payload bound for n
// receivers on the destination shard, with fault decisions already applied
// (drops are never enqueued; a corruption travels in its own single-target
// block carrying the damaged copy). Neighbor lists are sorted and shard
// ownership is contiguous, so a fault-free broadcast's receivers on one
// shard are a contiguous run of the sender's neighbor list: its block
// references that run in place (fromAdj), one fixed-size entry per
// destination shard however many wires it fans out over. Targeted sends
// and fault-affected wires list their receivers in the source shard's tgt
// buffer instead.
type wireBlock struct {
	from    int32
	fromAdj bool
	off, n  int32 // receiver range in Neighbors(from) (fromAdj) or the source shard's tgt
	payload Payload
}

// shard is one contiguous vertex range [lo, hi) and all its per-round
// state. Exactly one goroutine touches a shard during a phase; shards read
// each other's queues only in the deliver phase, after every shard has
// finished routing.
type shard struct {
	e      *Engine
	id     int
	lo, hi int

	// outboxes collects the shard's nodes' messages each round.
	outboxes []Outbox

	// out[d] holds the blocks this shard routed to shard d this round;
	// d == id is the local lane. tgt is the receiver buffer the blocks
	// without fromAdj index into; blocks store offsets, not subslices, so
	// appends may reallocate freely.
	out [][]wireBlock
	tgt []int32

	// Inbox arena of the shard's receivers: receiver lo+i's inbox is
	// arena[start[i]:start[i+1]]. counts doubles as the fill cursor.
	counts []int32
	start  []int32
	arena  []Received

	// Per-round accounting, merged by the round loop with sums and maxes
	// only, so merged Stats are bit-identical for every shard count.
	messages  int64
	totalBits int64
	roundMax  int
	dropped   int64
	corrupted int64
	boundary  int64 // wires that left this shard
	active    int   // nodes that sent anything
	bwErr     *ErrBandwidth
	valErr    error
}

// phase runs f on every shard and returns once all have finished: shard 0
// on the calling goroutine, the others on goroutines of their own. The
// return is a full barrier, so every shard finishes collecting before any
// routes, and routing before any delivers.
func (e *Engine) phase(f func(*shard)) {
	if len(e.shards) == 1 {
		f(e.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards) - 1)
	for _, sh := range e.shards[1:] {
		go func() {
			defer wg.Done()
			f(sh)
		}()
	}
	f(e.shards[0])
	wg.Wait()
}

// collect runs the Outbox callback for every node of the shard, then (when
// Validate is on) records the shard's first invalid send in node order.
func (sh *shard) collect() {
	e := sh.e
	if sh.outboxes == nil {
		local := sh.hi - sh.lo
		sh.outboxes = make([]Outbox, local)
		sh.counts = make([]int32, local)
		sh.start = make([]int32, local+1)
	}
	alg := e.curAlg
	sh.active, sh.valErr = 0, nil
	for i := range sh.outboxes {
		v := sh.lo + i
		ob := &sh.outboxes[i]
		ob.node, ob.neighbors, ob.sends = v, e.Neighbors(v), ob.sends[:0]
		alg.Outbox(v, ob)
		if len(ob.sends) > 0 {
			sh.active++
		}
	}
	if e.Validate {
		for i := range sh.outboxes {
			if err := sh.outboxes[i].checkSends(e.curRound, e.n); err != nil {
				sh.valErr = err
				return
			}
		}
	}
}

// checkSends validates every targeted send against the outbox's neighbor
// list, returning a descriptive error for an out-of-range or non-adjacent
// target. n is the vertex count of the network; round only labels the
// error.
func (o *Outbox) checkSends(round, n int) error {
	for _, sd := range o.sends {
		if sd.to == broadcastTo {
			continue
		}
		if sd.to < 0 || int(sd.to) >= n {
			return fmt.Errorf("sim: round %d: node %d sent to out-of-range node %d", round, o.node, sd.to)
		}
		if _, ok := slices.BinarySearch(o.neighbors, sd.to); !ok {
			return fmt.Errorf("sim: round %d: node %d sent to non-neighbor %d", round, o.node, sd.to)
		}
	}
	return nil
}

// route encodes, accounts and enqueues the shard's messages for the round.
// Each send entry is encoded exactly once (a broadcast costs one
// EncodeBits regardless of degree) while accounting charges every wire.
// Fault-free sends enqueue per-destination blocks; with a fault model every
// wire needs its own verdict, so faultWires walks the receivers one by one.
func (sh *shard) route() {
	e := sh.e
	for d := range sh.out {
		sh.out[d] = sh.out[d][:0]
	}
	sh.tgt = sh.tgt[:0]
	sh.messages, sh.totalBits, sh.roundMax = 0, 0, 0
	sh.dropped, sh.corrupted, sh.boundary = 0, 0, 0
	sh.bwErr = nil
	// Corruption flips bits of the real encoding, so a fault model forces
	// encoding even when bit accounting is off.
	needEncode := e.CountBits || e.Faults != nil
	w := writerPool.Get().(*bitio.Writer)
	defer writerPool.Put(w)
	for i := range sh.outboxes {
		ob := &sh.outboxes[i]
		for _, sd := range ob.sends {
			bits := 0
			if needEncode {
				w.Reset()
				sd.payload.EncodeBits(w)
				bits = w.Len()
			}
			switch {
			case e.Faults != nil && sd.to == broadcastTo:
				sh.faultWires(w, ob.node, ob.neighbors, sd.payload, bits)
			case e.Faults != nil:
				to := [1]int32{sd.to}
				sh.faultWires(w, ob.node, to[:], sd.payload, bits)
			case sd.to == broadcastTo:
				sh.broadcast(ob.node, ob.neighbors, sd.payload, bits)
			default:
				sh.targeted(ob.node, int(sd.to), sd.payload, bits)
			}
		}
	}
}

// account charges cnt wires of bits bits from v, the first of them to u,
// against the shard's round accounting. The bandwidth check reports the
// first violating wire in (sender, send-call) order.
func (sh *shard) account(v, u, bits, cnt int) {
	sh.messages += int64(cnt)
	if !sh.e.CountBits {
		return
	}
	sh.totalBits += int64(bits) * int64(cnt)
	sh.roundMax = max(sh.roundMax, bits)
	if limit := sh.e.Bandwidth; limit > 0 && bits > limit && sh.bwErr == nil {
		sh.bwErr = &ErrBandwidth{Round: sh.e.curRound, From: v, To: u, Bits: bits, Limit: limit}
	}
}

// broadcast routes one fault-free broadcast: the sorted neighbor list
// splits into one run per destination shard, and each run becomes a single
// block referencing the neighbor list in place.
func (sh *shard) broadcast(v int, nbr []int32, pl Payload, bits int) {
	e := sh.e
	last := len(e.shards) - 1
	for i := 0; i < len(nbr); {
		d := int(nbr[i]) / e.chunk
		j := len(nbr) // the last shard owns every remaining neighbor
		if d < last {
			next := int32((d + 1) * e.chunk)
			for j = i + 1; j < len(nbr) && nbr[j] < next; j++ {
			}
		}
		sh.account(v, int(nbr[i]), bits, j-i)
		if d != sh.id {
			sh.boundary += int64(j - i)
		}
		sh.out[d] = append(sh.out[d], wireBlock{from: int32(v), fromAdj: true, off: int32(i), n: int32(j - i), payload: pl})
		i = j
	}
}

// targeted routes one fault-free SendTo wire as a single-target block.
func (sh *shard) targeted(v, u int, pl Payload, bits int) {
	sh.account(v, u, bits, 1)
	d := u / sh.e.chunk
	if d != sh.id {
		sh.boundary++
	}
	sh.out[d] = append(sh.out[d], wireBlock{from: int32(v), off: int32(len(sh.tgt)), n: 1, payload: pl})
	sh.tgt = append(sh.tgt, int32(u))
}

// faultWires settles one send entry wire by wire under a fault model: the
// model is consulted exactly once per wire, drops never enqueue, and
// surviving receivers accumulate into per-destination runs in tgt (a
// corruption interrupts the current run with its own single-target block
// carrying the damaged payload). w still holds the send's encoding, which
// is what a corruption snapshots.
//
// targets must be ascending (the neighbor-list invariant), which keeps each
// run confined to one destination shard; block order follows wire order,
// so per-receiver delivery order is unchanged.
func (sh *shard) faultWires(w *bitio.Writer, v int, targets []int32, pl Payload, bits int) {
	e := sh.e
	runShard, runStart := -1, len(sh.tgt)
	flush := func() {
		if cnt := len(sh.tgt) - runStart; cnt > 0 {
			sh.out[runShard] = append(sh.out[runShard], wireBlock{from: int32(v), off: int32(runStart), n: int32(cnt), payload: pl})
		}
		runStart = len(sh.tgt)
	}
	for _, ut := range targets {
		u := int(ut)
		outcome, salt := e.Faults.Wire(e.curRound, v, u)
		switch outcome {
		case FaultDrop:
			sh.dropped++
			continue
		case FaultCorrupt:
			sh.corrupted++
		}
		sh.account(v, u, bits, 1)
		d := u / e.chunk
		if d != sh.id {
			sh.boundary++
		}
		if outcome == FaultCorrupt {
			flush()
			sh.tgt = append(sh.tgt, ut)
			sh.out[d] = append(sh.out[d], wireBlock{from: int32(v), off: int32(runStart), n: 1, payload: corruptBits(w, salt)})
			runStart, runShard = len(sh.tgt), d
			continue
		}
		if d != runShard {
			flush()
			runShard = d
		}
		sh.tgt = append(sh.tgt, ut)
	}
	flush()
}

// corruptBits copies the writer's current encoding and flips the bit
// selected by salt. Zero-length messages stay empty (nothing to flip); the
// receiver still sees a CorruptPayload.
func corruptBits(w *bitio.Writer, salt uint64) CorruptPayload {
	nbit := w.Len()
	bits := append([]byte(nil), w.Bytes()...)
	if nbit > 0 {
		pos := int(salt % uint64(nbit))
		bits[pos/8] ^= 1 << (7 - uint(pos%8))
	}
	return CorruptPayload{Bits: bits, NBit: nbit}
}

// receivers returns a block's receiver list. Called by destination shards
// in the deliver phase, when the source shard's tgt is frozen.
func (sh *shard) receivers(b wireBlock) []int32 {
	if b.fromAdj {
		return sh.e.Neighbors(int(b.from))[b.off : b.off+b.n]
	}
	return sh.tgt[b.off : b.off+b.n]
}

// deliver counting-sorts the shard's inbound queues into its inbox arena
// and runs the Inbox callback for every node of the shard. Source shards
// are drained in shard order and cover increasing sender ranges, each
// queue's blocks are in (sender, send-call) order, and a block's receivers
// are distinct, so every inbox comes out sorted by sender id with
// same-sender messages in send-call order.
func (sh *shard) deliver() {
	e := sh.e
	lo, counts := sh.lo, sh.counts
	clear(counts)
	for _, src := range e.shards {
		for _, b := range src.out[sh.id] {
			for _, t := range src.receivers(b) {
				counts[int(t)-lo]++
			}
		}
	}
	pos := int32(0)
	for i, c := range counts {
		sh.start[i] = pos
		counts[i] = pos
		pos += c
	}
	sh.start[len(counts)] = pos
	if cap(sh.arena) < int(pos) {
		sh.arena = make([]Received, pos)
	} else {
		sh.arena = sh.arena[:pos]
	}
	for _, src := range e.shards {
		for _, b := range src.out[sh.id] {
			msg := Received{From: int(b.from), Payload: b.payload}
			for _, t := range src.receivers(b) {
				sh.arena[counts[int(t)-lo]] = msg
				counts[int(t)-lo]++
			}
		}
	}
	alg := e.curAlg
	for i := range sh.outboxes {
		alg.Inbox(lo+i, sh.arena[sh.start[i]:sh.start[i+1]])
	}
}

// observeRound reports one executed round to the installed tracer and
// metrics registry. It runs on the round loop after the deliver barrier
// and the order-independent shard merge (so detected decode faults are
// included), which is what makes traces byte-identical across shard
// counts.
func (e *Engine) observeRound(round, active int, delivered, roundBits int64, roundMax int, faults RoundFaults) {
	if tr := e.tracer; tr != nil {
		tr.Round(obs.RoundInfo{
			Round:        round,
			Active:       active,
			Messages:     delivered,
			Bits:         roundBits,
			MaxBits:      roundMax,
			Dropped:      faults.Dropped,
			Corrupted:    faults.Corrupted,
			DecodeFaults: faults.DecodeFaults,
		})
	}
	if reg := e.metrics; reg != nil {
		reg.Counter(obs.MetricRounds).Add(1)
		reg.Counter(obs.MetricMessages).Add(delivered)
		reg.Counter(obs.MetricBits).Add(roundBits)
		reg.Gauge(obs.MetricMaxMessageBits).SetMax(int64(roundMax))
		reg.Histogram(obs.MetricRoundMaxBits, obs.RoundMaxBitsBuckets).Observe(float64(roundMax))
		if faults.Dropped != 0 {
			reg.Counter(obs.MetricDropped).Add(faults.Dropped)
		}
		if faults.Corrupted != 0 {
			reg.Counter(obs.MetricCorrupted).Add(faults.Corrupted)
		}
		if faults.DecodeFaults != 0 {
			reg.Counter(obs.MetricDecodeFaults).Add(faults.DecodeFaults)
		}
	}
}

// Run executes alg until Done or maxRounds, returning execution statistics.
//
// Each round has three phases, each a barrier across shards: Outbox
// collection, routing, and Inbox delivery. If alg implements Quiescent, a
// round that delivers no messages may terminate the run early; see
// Quiescent.
func (e *Engine) Run(alg Algorithm, maxRounds int) (Stats, error) {
	return e.RunFrom(alg, 0, maxRounds, Stats{})
}

// RunFrom executes alg exactly like Run but with the round clock starting
// at startRound and prior merged as the statistics of the already-executed
// rounds. It is the resume half of the checkpoint contract (see
// docs/RECOVERY.md): restoring a Snapshotter from a round-Checkpoint and
// calling RunFrom(alg, ck.Round, maxRounds, ck.Stats) continues the run
// with fault schedules, traces, and Stats aligned to the absolute round
// clock, so the completed run is bit-identical to one that never stopped.
// Round boundaries carry no routing state, so a checkpoint written on one
// shard count resumes on any other.
func (e *Engine) RunFrom(alg Algorithm, startRound, maxRounds int, prior Stats) (Stats, error) {
	stats := prior
	e.curAlg = alg
	e.observing = e.tracer != nil || e.metrics != nil
	ledger := e.Faults != nil
	if ledger || e.observing {
		e.decodeFaults.Store(0)
	}
	sharded := len(e.shards) > 1
	if e.metrics != nil && sharded {
		e.metrics.Gauge(obs.MetricShardGhostNodes).Set(e.GhostNodes())
	}
	quiescent, canQuiesce := alg.(Quiescent)
	var runBoundary int64
	for round := startRound; round < maxRounds; round++ {
		if alg.Done() {
			return stats, nil
		}
		e.curRound = round
		e.phase((*shard).collect)
		if e.Validate {
			for _, sh := range e.shards {
				if sh.valErr != nil {
					return stats, sh.valErr
				}
			}
		}
		bitsBefore := stats.TotalBits
		e.phase((*shard).route)
		// Merge shard accounting. Sums and maxes only: order-independent.
		var delivered int64
		var roundMax, active int
		var faults RoundFaults
		var bwErr *ErrBandwidth
		for _, sh := range e.shards {
			delivered += sh.messages
			stats.TotalBits += sh.totalBits
			faults.Dropped += sh.dropped
			faults.Corrupted += sh.corrupted
			runBoundary += sh.boundary
			active += sh.active
			roundMax = max(roundMax, sh.roundMax)
			// Shards cover increasing sender ranges, so the first shard
			// with a violation holds the globally first violating wire.
			if bwErr == nil {
				bwErr = sh.bwErr
			}
		}
		stats.Messages += delivered
		stats.MaxMessageBits = max(stats.MaxMessageBits, roundMax)
		if e.metrics != nil && sharded {
			e.metrics.Gauge(obs.MetricShardBoundaryMsgs).Set(runBoundary)
		}
		if bwErr != nil {
			return stats, bwErr
		}
		stats.RoundMaxBits = append(stats.RoundMaxBits, roundMax)
		e.phase((*shard).deliver)
		if ledger || e.observing {
			// Decode faults reported by the Inbox callbacks complete this
			// round's accounting; the swap must happen exactly once.
			faults.DecodeFaults = e.decodeFaults.Swap(0)
			if ledger {
				// len(Faults) tracks Rounds.
				stats.Faults = append(stats.Faults, faults)
			}
			if e.observing {
				e.observeRound(round, active, delivered, stats.TotalBits-bitsBefore, roundMax, faults)
			}
		}
		stats.Rounds++
		if h := e.afterRound; h != nil {
			// The hook observes the round fully merged into stats; its error
			// (checkpoint write failure, injected kill) aborts the run with
			// the accounting so far.
			if err := h(round, &stats); err != nil {
				return stats, err
			}
		}
		if delivered == 0 && canQuiesce && quiescent.Quiesced() {
			return stats, nil
		}
	}
	if !alg.Done() {
		return stats, fmt.Errorf("sim: algorithm did not terminate within %d rounds", maxRounds)
	}
	return stats, nil
}
