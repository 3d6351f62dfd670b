package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The election checker: a model group of real electors and the real
// switch agent's fencing (admitTerm), explored breadth first over every
// ordering of their messages and every placement of their faults.
//
// Time moves in heartbeat periods; the election timeout is 4 + id of them.
// At each period's start every replica that is up ticks, and a leader then
// sends one FlowMod under its term on its FIFO switch channel. Heartbeats
// and term gossip go on pairwise FIFO channels, the agent's stale-term
// rejections back to their sender. The clock moves on once every message
// is delivered. Deliveries to different receivers commute, so they are
// made in receiver order; the messages into one receiver arrive in every
// order. A run has electFaults faults, each one of:
//
//   - drop, duplicate or delay the message at the head of a channel (a
//     delayed channel is held past the next tick);
//   - partition a replica: its election channels lose everything for
//     electWindow periods (its switch channel stays up, so a deposed leader
//     keeps writing and is fenced);
//   - crash a replica, frozen or not, or pause one that is up: the crash or
//     pause window ends electWindow periods later with a Restart or a
//     Resume, which, as the fault injector's, may find the process in
//     another state.
//
// Process faults start between periods. In every state the checker
// asserts that at most one replica leads per term, that the agent never
// admits a FlowMod below a term it already admitted, and that no term saw
// two origins act (TermConflicts). From every state it runs the group on
// with no new fault — messages in channel order, then the clock — and
// asserts that within electSettle periods of the last window's end exactly
// one replica leads, the lowest-id one up, and every up replica holds its
// term. The same checker runs at one replica, where an up process must
// lead in every state.

const (
	electMax    = 3
	electFaults = 3
	electPeriod = time.Millisecond
	electWindow = 8
	// electSettle bounds the periods from the last fault to a settled
	// group: a timeout and a preemption, each at most 4 + id periods.
	electSettle = 12
	// electClamp is where a time since an event stops mattering: past the
	// longest election timeout.
	electClamp = 4 + electMax
	// The channels: heartbeats from i to j at i*electMax + j, replica i's
	// FlowMods at electMods + i and its stale-term rejections at
	// electFences + i.
	electMods   = electMax * electMax
	electFences = electMods + electMax
	electWires  = electFences + electMax
	// electQueue bounds what one channel holds: a period's message, the
	// gossip it draws and what duplicates and delays pile up.
	electQueue = 6
)

// beat is one message on the wire: a heartbeat or gossip (term, leader), a
// FlowMod (term) or a rejection.
type beat struct {
	term   uint8
	leader int8
}

// wire is one FIFO channel, kept in place so a state holds no pointer
// but its electors' to their host.
type wire struct {
	q    [electQueue]beat
	n    uint8
	held bool // delayed past the next tick
}

func (w *wire) push(b beat) {
	w.q[w.n] = b
	w.n++
}

func (w *wire) pop() beat {
	b := w.q[0]
	copy(w.q[:], w.q[1:w.n])
	w.n--
	return b
}

// member is replica id's electHost in the model.
type member struct {
	g  *group
	id int
}

func (m *member) heartbeat(to int, term uint32, leader int) {
	if g := m.g; g.cut[m.id] == 0 && g.cut[to] == 0 {
		g.wires[m.id*electMax+to].push(beat{uint8(term), int8(leader)})
	}
}

func (m *member) lead(bool)                     {}
func (m *member) abandon()                      {}
func (m *member) forget()                       {}
func (m *member) record(telemetry.Kind, string) {}

// group is one state of the model.
type group struct {
	n       int
	el      [electMax]elector
	members [electMax]member
	counts  [electMax]electCounts
	agent   switchAgent
	now     sim.Time
	// restartIn, resumeIn and cut count the periods left in each
	// replica's crash, pause and partition windows.
	restartIn, resumeIn, cut [electMax]int8
	wires                    [electWires]wire
	// faults counts the faults so far, budget how many a run may have;
	// violation is the first invariant this state broke.
	faults, budget int
	violation      string
}

func newGroup(n, budget int) *group {
	g := &group{n: n, budget: budget}
	peers := make([]*openflow.Transport, n)
	for i := 0; i < n; i++ {
		g.members[i] = member{g, i}
		g.el[i] = *newElector(&g.members[i], &g.counts[i], i, n, electPeriod)
		g.el[i].peers = peers
	}
	return g
}

func (g *group) clone() *group {
	c := *g
	for i := 0; i < g.n; i++ {
		c.members[i].g = &c
		c.el[i].fx, c.el[i].n = &c.members[i], &c.counts[i]
	}
	return &c
}

// receiver names a channel's receiver: a replica, or electMax the agent.
func receiver(w int) int {
	switch {
	case w < electMods:
		return w % electMax
	case w < electFences:
		return electMax
	}
	return w - electFences
}

// ---- moves ----

type electMove struct {
	kind byte
	// w is the channel of a message move, i the replica of a fault.
	w, i int8
	what byte
}

const (
	mvMsg       = 'm'
	mvClock     = 'c'
	mvCrash     = 'C'
	mvPause     = 'P'
	mvPartition = 'X'
	delay       = 'l'
)

func (m electMove) String() string {
	switch m.kind {
	case mvMsg:
		w := map[byte]string{deliver: "", drop: "(drop)", duplicate: "(dup)", delay: "(delay)"}[m.what]
		switch {
		case m.w < electMods:
			return fmt.Sprintf("beat%d>%d%s", m.w/electMax, m.w%electMax, w)
		case m.w < electFences:
			return fmt.Sprintf("flowmod%d%s", m.w-electMods, w)
		}
		return fmt.Sprintf("fenced%d%s", m.w-electFences, w)
	case mvClock:
		return "clock"
	}
	return map[byte]string{mvCrash: "crash", mvPause: "pause", mvPartition: "partition"}[m.kind] + fmt.Sprint(m.i)
}

// nextReceiver is the lowest receiver with a message to take, or -1, and
// the first channel into it that holds one.
func (g *group) nextReceiver() (r, first int) {
	r = -1
	for w := range g.wires {
		if x := &g.wires[w]; x.n > 0 && !x.held && (r < 0 || receiver(w) < r) {
			r, first = receiver(w), w
		}
	}
	return r, first
}

// moves lists what may happen next.
func (g *group) moves() []electMove {
	var out []electMove
	spare := g.faults < g.budget
	if r, _ := g.nextReceiver(); r >= 0 {
		for w := range g.wires {
			if x := &g.wires[w]; x.n == 0 || x.held || receiver(w) != r {
				continue
			}
			out = append(out, electMove{kind: mvMsg, w: int8(w), what: deliver})
			if spare {
				out = append(out, electMove{kind: mvMsg, w: int8(w), what: drop},
					electMove{kind: mvMsg, w: int8(w), what: duplicate}, electMove{kind: mvMsg, w: int8(w), what: delay})
			}
		}
		return out
	}
	out = append(out, electMove{kind: mvClock})
	for i := 0; i < g.n && spare; i++ {
		if g.el[i].state != down {
			out = append(out, electMove{kind: mvCrash, i: int8(i)})
		}
		if g.el[i].up() {
			out = append(out, electMove{kind: mvPause, i: int8(i)})
		}
		if g.n > 1 && g.cut[i] == 0 {
			out = append(out, electMove{kind: mvPartition, i: int8(i)})
		}
	}
	return out
}

// apply makes one move, then checks the state invariants.
func (g *group) apply(m electMove) {
	if m.kind != mvClock && m.what != deliver {
		g.faults++
	}
	switch m.kind {
	case mvClock:
		g.now += sim.Time(electPeriod)
		for w := range g.wires {
			g.wires[w].held = false
		}
		for i := 0; i < g.n; i++ {
			e := &g.el[i]
			if g.restartIn[i]--; g.restartIn[i] == 0 {
				e.restart(g.now)
			}
			if g.resumeIn[i]--; g.resumeIn[i] == 0 {
				e.resume(g.now)
			}
			g.restartIn[i], g.resumeIn[i], g.cut[i] = max(g.restartIn[i], 0), max(g.resumeIn[i], 0), max(g.cut[i]-1, 0)
			if e.term > 255 {
				panic("terms outgrew the model's one-byte encoding")
			}
			if e.up() {
				e.tick(g.now)
				if e.leading() {
					g.wires[electMods+i].push(beat{term: uint8(e.term)})
				}
			}
		}
	case mvMsg:
		g.message(int(m.w), m.what)
	case mvCrash:
		g.el[m.i].crash()
		g.restartIn[m.i] = electWindow
	case mvPause:
		g.el[m.i].pause(g.now)
		g.resumeIn[m.i] = electWindow
	case mvPartition:
		g.cut[m.i] = electWindow
		for j := 0; j < g.n; j++ {
			g.wires[int(m.i)*electMax+j].n, g.wires[j*electMax+int(m.i)].n = 0, 0
		}
	}
	if g.violation != "" {
		return
	}
	if g.agent.TermConflicts > 0 {
		g.violation = "two replicas acted under one term at the switch agent"
	}
	for i := 0; i < g.n; i++ {
		if g.n == 1 && g.el[i].up() && !g.el[i].leading() {
			g.violation = "a group of one is up and does not lead"
		}
		for j := i + 1; j < g.n; j++ {
			if g.el[i].leading() && g.el[j].leading() && g.el[i].term == g.el[j].term {
				g.violation = fmt.Sprintf("replicas %d and %d both lead term %d", i, j, g.el[i].term)
			}
		}
	}
}

// message takes the head of channel w: delivered, dropped, duplicated
// (delivered and left at the head) or delayed past the next tick.
func (g *group) message(w int, what byte) {
	x := &g.wires[w]
	if what == delay {
		x.held = true
		return
	}
	b := x.q[0]
	if what != duplicate {
		x.pop()
	}
	if what == drop {
		return
	}
	switch to := receiver(w); {
	case to == electMax:
		from := w - electMods
		before := g.agent.highestTerm
		reply := func(openflow.Message, uint32) { g.wires[electFences+from].push(beat{}) }
		if term := uint32(b.term); g.agent.admitTerm(term, uint32(from), true, "flowmod", reply, 0) && term < before && g.violation == "" {
			g.violation = fmt.Sprintf("the agent applied replica %d's FlowMod under term %d after admitting term %d", from, b.term, before)
		}
	case !g.el[to].up():
		// Lost: the process is down or frozen.
	case w < electMods:
		g.el[to].heartbeat(g.now, uint32(b.term), int(b.leader))
	default:
		g.el[to].fenced(g.now)
	}
}

func (g *group) next(yield func(electMove, *group) bool) {
	for _, m := range g.moves() {
		c := g.clone()
		c.apply(m)
		if !yield(m, c) {
			return
		}
	}
}

// key is the state's canonical encoding. Times enter as periods since,
// clamped past the longest timeout, so a settled group's states recur.
func (g *group) key(b []byte) []byte {
	since := func(t sim.Time) byte {
		return byte(min((g.now-t)/sim.Time(electPeriod), electClamp))
	}
	b = append(b, byte(g.faults), byte(g.agent.highestTerm), byte(g.agent.actedTerm), byte(g.agent.actedBy))
	for i := 0; i < g.n; i++ {
		e := &g.el[i]
		b = append(b, byte(e.state), byte(e.term), byte(e.leaderID), byte(g.restartIn[i]), byte(g.resumeIn[i]), byte(g.cut[i]))
		if e.followingHigherSince >= 0 {
			b = append(b, 'h', since(e.followingHigherSince))
		}
		if e.state == following {
			b = append(b, since(e.lastHeartbeatAt))
		}
	}
	for w := range g.wires {
		if x := &g.wires[w]; x.n > 0 {
			b = append(b, '|', byte(w))
			if x.held {
				b = append(b, 'l')
			}
			for _, m := range x.q[:x.n] {
				b = append(b, byte(m.term), byte(m.leader))
			}
		}
	}
	return b
}

// settled reports whether exactly one replica leads, the lowest-id one up,
// and every up replica holds its term. A group with nobody up is settled.
func (g *group) settled() bool {
	lead := -1
	for i := 0; i < g.n; i++ {
		switch e := &g.el[i]; {
		case !e.up():
		case lead < 0 && e.leading():
			lead = i
		case lead < 0 || e.leading() || e.term != g.el[lead].term:
			return false
		}
	}
	return true
}

// never is the settle time of a run that cycles without settling.
const never = 1 << 20

// settleTime runs g on with no new fault — messages in channel order, then
// the clock — and returns how many periods pass before the group is
// settled at every period's end from then on, or the violation the run
// hit. memo maps the state at a period's end, faults left out, to its own
// settle time.
func (g *group) settleTime(memo map[string]int) (int, string) {
	var ends []string
	var bad []bool
	tail := 0
	var buf []byte
	for {
		for r, w := g.nextReceiver(); r >= 0; r, w = g.nextReceiver() {
			if g.apply(electMove{kind: mvMsg, w: int8(w), what: deliver}); g.violation != "" {
				return 0, g.violation
			}
		}
		buf = g.key(buf[:0])
		k := string(buf[1:])
		if v, ok := memo[k]; ok {
			tail = v
			break
		}
		if at := slices.Index(ends, k); at >= 0 {
			// The run cycles: it settles only if every period's end in
			// the cycle is settled.
			if slices.Contains(bad[at:], true) {
				tail = never
			}
			break
		}
		ends = append(ends, k)
		bad = append(bad, !g.settled())
		g.apply(electMove{kind: mvClock})
	}
	for i := len(ends) - 1; i >= 0; i-- {
		switch {
		case tail > 0:
			tail = min(tail+1, never)
		case bad[i]:
			tail = 1
		}
		memo[ends[i]] = tail
	}
	return tail, ""
}

// exploreElection checks a group of n with budget faults per run. It also
// returns the longest settle time, counted from the last window's end,
// that any state showed.
func exploreElection(n, budget int) (searchResult, int) {
	memo := make(map[string]int)
	slowest := 0
	res := search(newGroup(n, budget),
		func(g *group) []string {
			t, v := g.clone().settleTime(memo)
			if v != "" {
				return []string{"-- no faults from here --", v}
			}
			open := 0
			for i := 0; i < g.n; i++ {
				open = max(open, int(g.restartIn[i]), int(g.resumeIn[i]), int(g.cut[i]))
			}
			slowest = max(slowest, t-open)
			if t > open+electSettle {
				return []string{fmt.Sprintf("-- no faults from here: not settled %d periods after the last fault --", electSettle)}
			}
			return nil
		},
		func(g *group, _ func() []string) []string {
			if g.violation != "" {
				return []string{g.violation}
			}
			return nil
		})
	return res, slowest
}

// TestElectorInterleavings is the exhaustive check of the elector's
// safety and liveness over the model group (see the top of this file), at
// three replicas and at one.
func TestElectorInterleavings(t *testing.T) {
	for _, n := range []int{3, 1} {
		start := time.Now()
		res, slowest := exploreElection(n, electFaults)
		t.Logf("%d replicas: %d states, deepest %d moves, %d faults per run, settled within %d periods: %v",
			n, res.states, res.depth, electFaults, slowest, time.Since(start).Round(time.Millisecond))
		if res.violation != nil {
			t.Fatalf("%d replicas: invariant broken:\n  %s", n, strings.Join(res.violation, "\n  "))
		}
	}
}
