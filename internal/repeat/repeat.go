// Package repeat implements repeated broadcast in dual graphs, the future
// work the paper's conclusion singles out: the source must disseminate a
// stream of messages m_1, m_2, ..., m_M rather than a single one, and
// long-term efficiency (throughput) matters as much as single-message
// latency.
//
// Messages are distinguishable (sequence numbers), a transmission carries
// exactly one message, and receptions follow the same collision rules as the
// single-message model. Two relay policies are provided:
//
//   - Sequential: a fresh single-message protocol per message, one after the
//     other, each given a fixed round budget (the baseline a naive user
//     would build from the single-shot primitive);
//   - Pipelined: all messages in flight at once, each node relaying the
//     newest message it knows (round-robin or harmonic transmission
//     schedule), which overlaps the per-message latencies.
package repeat

import (
	"errors"
	"fmt"
	"math/rand"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/randsrc"
)

// Message is a sequence number 1..M.
type Message int

// Reception is what a process hears in one round of a repeated-broadcast
// execution.
type Reception struct {
	// Kind reuses the single-message semantics: silence, delivery, or
	// collision notification.
	Kind Kind
	// Msg is the delivered message when Kind == Delivered (0 otherwise).
	Msg Message
	// Own reports whether the delivery is the receiver's own transmission.
	Own bool
}

// Kind classifies a reception.
type Kind int

// Reception kinds.
const (
	// Silence is ⊥.
	Silence Kind = iota + 1
	// Delivered is a received message.
	Delivered
	// Collision is ⊤.
	Collision
)

// Process is one automaton of a repeated-broadcast protocol.
type Process interface {
	// Start activates the process; initial lists the messages it holds
	// (non-empty only at the source).
	Start(round int, initial []Message)
	// Decide returns whether to transmit this round and which message.
	Decide(round int) (send bool, msg Message)
	// Receive delivers the round outcome.
	Receive(round int, r Reception)
}

// Protocol creates processes.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// NewProcess creates the process with identifier id of an n-node
	// network that must disseminate m messages.
	NewProcess(id, n, m int, rng *rand.Rand) Process
}

// Adversary controls unreliable deliveries for the repeated engine. The
// jam-greedy built-in mirrors adversary.GreedyCollider.
type Adversary int

// Built-in adversaries.
const (
	// Benign never uses unreliable edges.
	Benign Adversary = iota + 1
	// Greedy jams lone deliveries to nodes that lack the sent message.
	Greedy
)

// String implements fmt.Stringer.
func (a Adversary) String() string {
	switch a {
	case Benign:
		return "benign"
	case Greedy:
		return "greedy"
	}
	return fmt.Sprintf("Adversary(%d)", int(a))
}

// Config parameterizes a repeated-broadcast run.
type Config struct {
	// Messages is the stream length M.
	Messages int
	// MaxRounds caps the execution.
	MaxRounds int
	// Seed drives protocol randomness.
	Seed int64
	// Adversary selects the delivery behaviour (default Greedy).
	Adversary Adversary
}

// Result reports a repeated-broadcast execution.
type Result struct {
	// Completed reports whether all M messages reached all nodes.
	Completed bool
	// Rounds is the round in which the last (node, message) delivery
	// happened, or the executed rounds if incomplete.
	Rounds int
	// PerMessage[m-1] is the completion round of message m (-1 if never).
	PerMessage []int
	// Throughput is Messages/Rounds for completed runs (0 otherwise).
	Throughput float64
	// Transmissions counts all transmissions.
	Transmissions int
}

// ErrBadConfig reports invalid run parameters.
var ErrBadConfig = errors.New("invalid repeated-broadcast config")

// Run executes the protocol on the dual graph network under the built-in
// adversary with collision rule CR4 (silence resolution) and asynchronous
// starts.
func Run(d *graph.Dual, p Protocol, cfg Config) (*Result, error) {
	if cfg.Messages < 1 {
		return nil, fmt.Errorf("%w: need at least 1 message", ErrBadConfig)
	}
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("%w: need MaxRounds >= 1", ErrBadConfig)
	}
	if cfg.Adversary == 0 {
		cfg.Adversary = Greedy
	}
	n := d.N()
	arena := randsrc.NewArena(n + 1)
	rngs := arena.Procs(arena.Rand(cfg.Seed), n)
	procs := make([]Process, n)
	for node := 0; node < n; node++ {
		procs[node] = p.NewProcess(node+1, n, cfg.Messages, rngs[node+1])
	}

	src := d.Source()
	active := make([]bool, n)
	knows := make([]map[Message]bool, n)
	for i := range knows {
		knows[i] = make(map[Message]bool)
	}
	initial := make([]Message, cfg.Messages)
	for m := 1; m <= cfg.Messages; m++ {
		initial[m-1] = Message(m)
		knows[src][Message(m)] = true
	}
	procs[src].Start(1, initial)
	active[src] = true

	res := &Result{PerMessage: make([]int, cfg.Messages)}
	for i := range res.PerMessage {
		res.PerMessage[i] = -1
	}
	known := make([]int, cfg.Messages+1) // holders per message
	for m := 1; m <= cfg.Messages; m++ {
		known[m] = 1
	}
	totalNeeded := cfg.Messages * n
	totalKnown := cfg.Messages

	sentMsg := make([]Message, n)
	sent := make([]bool, n)
	reaching := make([][]graph.NodeID, n)

	for round := 1; round <= cfg.MaxRounds; round++ {
		var senders []graph.NodeID
		for i := range sent {
			sent[i] = false
		}
		for node := 0; node < n; node++ {
			if !active[node] {
				continue
			}
			send, msg := procs[node].Decide(round)
			if !send {
				continue
			}
			if !knows[node][msg] {
				return nil, fmt.Errorf("node %d transmitted unknown message %d in round %d", node, msg, round)
			}
			sent[node] = true
			sentMsg[node] = msg
			senders = append(senders, graph.NodeID(node))
		}
		res.Transmissions += len(senders)

		for i := range reaching {
			reaching[i] = reaching[i][:0]
		}
		for _, s := range senders {
			reaching[s] = append(reaching[s], s)
			for _, v := range d.ReliableOut(s) {
				reaching[v] = append(reaching[v], s)
			}
		}
		if cfg.Adversary == Greedy {
			// Jam lone deliveries of messages the target does not know yet.
			for u := 0; u < n; u++ {
				if sent[u] || len(reaching[u]) != 1 {
					continue
				}
				s := reaching[u][0]
				if knows[u][sentMsg[s]] {
					continue
				}
				for _, other := range senders {
					if other != s && d.HasUnreliableEdge(other, graph.NodeID(u)) {
						reaching[u] = append(reaching[u], other)
						break
					}
				}
			}
		}

		type delivery struct {
			node graph.NodeID
			msg  Message
		}
		var newKnown []delivery
		for node := 0; node < n; node++ {
			var rec Reception
			switch {
			case sent[node]:
				rec = Reception{Kind: Delivered, Msg: sentMsg[node], Own: true}
			case len(reaching[node]) == 0:
				rec = Reception{Kind: Silence}
			case len(reaching[node]) == 1:
				from := reaching[node][0]
				rec = Reception{Kind: Delivered, Msg: sentMsg[from]}
			default:
				rec = Reception{Kind: Silence} // CR4 resolved to silence
			}
			if rec.Kind == Delivered && !rec.Own && !knows[node][rec.Msg] {
				newKnown = append(newKnown, delivery{graph.NodeID(node), rec.Msg})
			}
			switch {
			case active[node]:
				procs[node].Receive(round, rec)
			case rec.Kind == Delivered:
				procs[node].Start(round, nil)
				active[node] = true
				procs[node].Receive(round, rec)
			}
		}
		for _, dlv := range newKnown {
			knows[dlv.node][dlv.msg] = true
			totalKnown++
			known[dlv.msg]++
			if known[dlv.msg] == n {
				res.PerMessage[dlv.msg-1] = round
			}
		}
		res.Rounds = round
		if totalKnown == totalNeeded {
			break
		}
	}
	res.Completed = totalKnown == totalNeeded
	if res.Completed {
		res.Throughput = float64(cfg.Messages) / float64(res.Rounds)
	}
	return res, nil
}

// Sequential runs one single-message protocol per message, back to back,
// giving each message a fixed round budget before starting the next.
type Sequential struct {
	// Budget is the number of rounds allocated to each message.
	Budget int
	// Harmonic selects harmonic transmission within a slot (round robin
	// otherwise).
	Harmonic bool
	// T is the harmonic level length when Harmonic is set.
	T int
}

var _ Protocol = (*Sequential)(nil)

// NewSequential builds the sequential baseline with the given per-message
// round budget.
func NewSequential(budget int, harmonic bool, t int) (*Sequential, error) {
	if budget < 1 {
		return nil, fmt.Errorf("sequential needs budget >= 1, got %d", budget)
	}
	if harmonic && t < 1 {
		return nil, fmt.Errorf("sequential harmonic needs T >= 1, got %d", t)
	}
	return &Sequential{Budget: budget, Harmonic: harmonic, T: t}, nil
}

// Name implements Protocol.
func (s *Sequential) Name() string {
	if s.Harmonic {
		return fmt.Sprintf("sequential-harmonic(B=%d,T=%d)", s.Budget, s.T)
	}
	return fmt.Sprintf("sequential-rr(B=%d)", s.Budget)
}

// NewProcess implements Protocol.
func (s *Sequential) NewProcess(id, n, m int, rng *rand.Rand) Process {
	return &sequentialProc{cfg: s, id: id, n: n, rng: rng, recv: make(map[Message]int)}
}

type sequentialProc struct {
	cfg  *Sequential
	id   int
	n    int
	rng  *rand.Rand
	recv map[Message]int // message -> round first known
}

func (p *sequentialProc) Start(round int, initial []Message) {
	for _, m := range initial {
		p.recv[m] = 0
	}
}

// slotOf returns which message is being disseminated at the given round.
func (p *sequentialProc) slotOf(round int) Message {
	return Message((round-1)/p.cfg.Budget + 1)
}

func (p *sequentialProc) Decide(round int) (bool, Message) {
	msg := p.slotOf(round)
	got, ok := p.recv[msg]
	if !ok {
		return false, 0
	}
	if p.cfg.Harmonic {
		prob := core.SendProbability(round, got, p.cfg.T)
		return p.rng != nil && p.rng.Float64() < prob, msg
	}
	return (round-1)%p.n == p.id-1, msg
}

func (p *sequentialProc) Receive(round int, r Reception) {
	if r.Kind == Delivered && !r.Own {
		if _, ok := p.recv[r.Msg]; !ok {
			p.recv[r.Msg] = round
		}
	}
}

// Pipelined keeps all messages in flight: each node cycles through every
// message it knows (so no message is starved even when deliveries arrive out
// of order), transmitting on a round-robin or harmonic schedule. Overlapping
// the per-message dissemination amortizes the per-hop contention cost that
// the sequential baseline pays M separate times.
type Pipelined struct {
	// Harmonic selects harmonic transmission (round robin otherwise).
	Harmonic bool
	// T is the harmonic level length.
	T int
}

var _ Protocol = (*Pipelined)(nil)

// NewPipelined builds the pipelined policy.
func NewPipelined(harmonic bool, t int) (*Pipelined, error) {
	if harmonic && t < 1 {
		return nil, fmt.Errorf("pipelined harmonic needs T >= 1, got %d", t)
	}
	return &Pipelined{Harmonic: harmonic, T: t}, nil
}

// Name implements Protocol.
func (p *Pipelined) Name() string {
	if p.Harmonic {
		return fmt.Sprintf("pipelined-harmonic(T=%d)", p.T)
	}
	return "pipelined-rr"
}

// NewProcess implements Protocol.
func (p *Pipelined) NewProcess(id, n, m int, rng *rand.Rand) Process {
	return &pipelinedProc{cfg: p, id: id, n: n, rng: rng, recv: make(map[Message]int)}
}

type pipelinedProc struct {
	cfg    *Pipelined
	id     int
	n      int
	rng    *rand.Rand
	recv   map[Message]int
	order  []Message // known messages in learning order
	cursor int
}

func (p *pipelinedProc) Start(round int, initial []Message) {
	for _, m := range initial {
		p.learn(m, 0)
	}
}

func (p *pipelinedProc) learn(m Message, round int) {
	if _, ok := p.recv[m]; ok {
		return
	}
	p.recv[m] = round
	p.order = append(p.order, m)
}

func (p *pipelinedProc) Decide(round int) (bool, Message) {
	if len(p.order) == 0 {
		return false, 0
	}
	msg := p.order[p.cursor%len(p.order)]
	send := false
	if p.cfg.Harmonic {
		prob := core.SendProbability(round, p.recv[msg], p.cfg.T)
		send = p.rng != nil && p.rng.Float64() < prob
	} else {
		send = (round-1)%p.n == p.id-1
	}
	if send {
		p.cursor = (p.cursor + 1) % len(p.order)
	}
	return send, msg
}

func (p *pipelinedProc) Receive(round int, r Reception) {
	if r.Kind == Delivered && !r.Own {
		p.learn(r.Msg, round)
	}
}
