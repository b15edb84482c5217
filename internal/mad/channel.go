package mad

import (
	"fmt"
	"sync"

	"newmad/internal/packet"
	"newmad/internal/proto"
)

// Channel is a named communication scope. Within a channel, traffic from
// one source node forms a single FIFO flow; different channels (and
// different sources) are independent flows the optimizer may freely
// interleave — this is precisely where cross-flow aggregation finds its
// material.
type Channel struct {
	session *Session
	name    string
	index   int

	mu      sync.Mutex
	conns   map[packet.NodeID]*Connection
	inflows map[packet.FlowID]*assembly

	onMessage  MessageHandler
	onExpress  FragmentHandler
	onFragment FragmentHandler
}

// MessageHandler receives a fully assembled inbound message.
type MessageHandler func(src packet.NodeID, msg *Incoming)

// FragmentHandler receives a single fragment as it is delivered. frag is
// valid only for the duration of the callback: copy what must outlive it
// (its Payload bytes are the handler's to keep).
type FragmentHandler func(src packet.NodeID, frag *packet.Packet)

// Incoming is an assembled message: fragments in pack order. Handlers may
// retain it (and its Fragments) indefinitely.
type Incoming struct {
	Src       packet.NodeID
	Msg       packet.MsgID
	Fragments [][]byte
	// Express flags Fragments[i] that were packed receive_EXPRESS.
	Express []bool

	// Inline storage for the first fragments, so that the Incoming and
	// both slices of a short message are one allocation.
	fragBuf [2][]byte
	exprBuf [2]bool
}

// newIncoming starts the assembly of message msg from src.
func newIncoming(src packet.NodeID, msg packet.MsgID) *Incoming {
	in := &Incoming{Src: src, Msg: msg}
	in.Fragments = in.fragBuf[:0]
	in.Express = in.exprBuf[:0]
	return in
}

// fragScratch holds the per-callback packet copies fragment handlers are
// given, so the delivered packet never escapes ingest.
var fragScratch = sync.Pool{New: func() any { return new(packet.Packet) }}

// assembly accumulates the current message of one inbound flow.
type assembly struct {
	msg   *Incoming
	begun bool
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// OnMessage installs the assembled-message handler.
func (c *Channel) OnMessage(h MessageHandler) {
	c.mu.Lock()
	c.onMessage = h
	c.mu.Unlock()
}

// OnExpress installs a handler invoked immediately for every express
// fragment, before the enclosing message completes — the receiver-side
// payoff of receive_EXPRESS (e.g. RPC dispatch before arguments arrive).
func (c *Channel) OnExpress(h FragmentHandler) {
	c.mu.Lock()
	c.onExpress = h
	c.mu.Unlock()
}

// OnFragment installs a raw per-fragment handler (diagnostics, custom
// assembly). Message assembly still runs when OnMessage is also set.
func (c *Channel) OnFragment(h FragmentHandler) {
	c.mu.Lock()
	c.onFragment = h
	c.mu.Unlock()
}

// Connect returns the connection (the outbound flow) to peer, creating it
// on first use.
func (c *Channel) Connect(peer packet.NodeID) *Connection {
	if peer == c.session.node {
		panic("mad: connecting a channel to self")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if conn, ok := c.conns[peer]; ok {
		return conn
	}
	conn := &Connection{
		channel: c,
		peer:    peer,
		flow:    flowID(c.index, c.session.node),
	}
	c.conns[peer] = conn
	return conn
}

// ingest processes one in-order fragment from the session dispatcher. The
// deliverable carries the packet by value; the fragment handlers below get
// a pointer to a pooled copy, valid for the duration of the callback.
func (c *Channel) ingest(d proto.Deliverable) {
	c.mu.Lock()
	onFrag, onExpr, onMsg := c.onFragment, c.onExpress, c.onMessage
	as := c.inflows[d.Pkt.Flow]
	if as == nil {
		as = &assembly{}
		c.inflows[d.Pkt.Flow] = as
	}
	if !as.begun {
		as.msg = newIncoming(d.Src, d.Pkt.Msg)
		as.begun = true
	}
	if d.Pkt.Msg != as.msg.Msg {
		c.mu.Unlock()
		panic(fmt.Sprintf("mad: channel %q: fragment of message %d while message %d is open (flow %d)",
			c.name, d.Pkt.Msg, as.msg.Msg, d.Pkt.Flow))
	}
	express := d.Pkt.Recv == packet.RecvExpress
	as.msg.Fragments = append(as.msg.Fragments, d.Pkt.Payload)
	as.msg.Express = append(as.msg.Express, express)
	var complete *Incoming
	if d.Pkt.Last {
		complete = as.msg
		as.begun = false
		as.msg = nil
	}
	c.mu.Unlock()

	if onFrag != nil || (onExpr != nil && express) {
		p := fragScratch.Get().(*packet.Packet)
		*p = d.Pkt
		if onFrag != nil {
			onFrag(d.Src, p)
		}
		if onExpr != nil && express {
			onExpr(d.Src, p)
		}
		*p = packet.Packet{}
		fragScratch.Put(p)
	}
	if complete != nil && onMsg != nil {
		onMsg(complete.Src, complete)
	}
}

// Connection is one outbound flow: this node's messages to one peer over
// one channel. Messages are packed strictly one at a time per connection
// (Madeleine semantics); concurrent messages belong on distinct channels.
type Connection struct {
	channel *Channel
	peer    packet.NodeID
	flow    packet.FlowID

	mu      sync.Mutex
	nextSeq int
	nextMsg packet.MsgID
	open    bool
	// msg is the connection's one message, reset by every BeginPacking:
	// with one open message per connection, packing needs no allocation.
	msg Message
}

// Peer returns the remote node.
func (c *Connection) Peer() packet.NodeID { return c.peer }

// Flow returns the wire flow id (diagnostics).
func (c *Connection) Flow() packet.FlowID { return c.flow }

// BeginPacking starts a new outbound message. The returned *Message is
// the connection's own and is invalid after its EndPacking: the next
// BeginPacking reuses it.
func (c *Connection) BeginPacking() *Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open {
		panic(fmt.Sprintf("mad: BeginPacking with message %d still open on flow %d", c.nextMsg, c.flow))
	}
	c.open = true
	c.nextMsg++
	c.msg = Message{conn: c, msg: c.nextMsg, held: c.msg.held[:0]}
	return &c.msg
}

// Message is an outbound structured message under construction.
type Message struct {
	conn *Connection
	msg  packet.MsgID
	// held are packed fragments not yet submitted: always the most recent
	// fragment (it may turn out to be the last) and every send_LATER
	// fragment (whose buffers must not be read before EndPacking). Its
	// backing array is kept across the connection's messages.
	held  []*packet.Packet
	ended bool
}

// Pack appends one fragment with the given constraint modes.
func (m *Message) Pack(data []byte, send packet.SendMode, recv packet.RecvMode) {
	m.PackClass(data, send, recv, classify(len(data), recv))
}

// PackClass is Pack with an explicit traffic class (middlewares use it to
// mark control tokens).
func (m *Message) PackClass(data []byte, send packet.SendMode, recv packet.RecvMode, class packet.ClassID) {
	if m.ended {
		panic("mad: Pack after EndPacking")
	}
	c := m.conn
	c.mu.Lock()
	payload := data
	if send == packet.SendSafer {
		// safer: capture now; caller may immediately reuse the buffer.
		payload = append([]byte(nil), data...)
	}
	p := c.newPacketLocked(m.msg, class, payload)
	p.Send = send
	p.Recv = recv

	// Submit every held fragment that is not send_LATER and is not the
	// new most-recent one; the newest is always held because it may be
	// the message's last fragment. held is compacted in place.
	m.held = append(m.held, p)
	still := m.held[:0]
	for i, h := range m.held {
		if i == len(m.held)-1 || h.Send == packet.SendLater {
			still = append(still, h)
			continue
		}
		c.submitLocked(h)
	}
	clear(m.held[len(still):]) // submitted packets belong to the engine now
	m.held = still
	c.mu.Unlock()
}

// EndPacking completes the message: the final fragment is marked Last and
// all send_LATER fragments are read and submitted. It returns after the
// packets are handed to the optimizer (never blocking on the network).
func (m *Message) EndPacking() {
	if m.ended {
		panic("mad: double EndPacking")
	}
	m.ended = true
	c := m.conn
	c.mu.Lock()
	if len(m.held) == 0 {
		// Empty message: emit a zero-length terminator so the receiver
		// still observes a message boundary.
		p := c.newPacketLocked(m.msg, packet.ClassControl, []byte{})
		p.Last = true
		c.submitLocked(p)
	} else {
		m.held[len(m.held)-1].Last = true
		for _, h := range m.held {
			c.submitLocked(h)
		}
	}
	clear(m.held)
	m.held = m.held[:0]
	c.open = false
	c.mu.Unlock()
}

// newPacketLocked acquires a pooled packet for the next fragment of
// message msg. Ownership passes to the engine when Submit accepts it.
// Caller holds c.mu.
func (c *Connection) newPacketLocked(msg packet.MsgID, class packet.ClassID, payload []byte) *packet.Packet {
	p := packet.AcquirePacket()
	p.Flow = c.flow
	p.Msg = msg
	p.Seq = c.nextSeq
	p.Src = c.channel.session.node
	p.Dst = c.peer
	p.Class = class
	p.Payload = payload
	c.nextSeq++
	return p
}

func (c *Connection) submitLocked(p *packet.Packet) {
	if err := c.channel.session.engine.Submit(p); err != nil {
		panic(fmt.Sprintf("mad: submit failed: %v", err))
	}
}

// classify applies the default class rule: express fragments are control
// when tiny (signalling) else small; large payloads are bulk.
func classify(size int, recv packet.RecvMode) packet.ClassID {
	const bulkAt = 8 << 10
	switch {
	case size >= bulkAt:
		return packet.ClassBulk
	case recv == packet.RecvExpress && size <= 64:
		return packet.ClassControl
	default:
		return packet.ClassSmall
	}
}
