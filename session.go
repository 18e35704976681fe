package envirotrack

import (
	"errors"
	"sync"
	"time"
)

// Event is one message observed by a subscribed node during a Session.
type Event struct {
	At   time.Duration
	Node NodeID
	Msg  NodeMessage
}

// ErrSessionStopped is returned by Wait when the session was stopped
// before reaching its deadline.
var ErrSessionStopped = errors.New("envirotrack: session stopped")

// Session runs a network on a background goroutine and streams the
// NodeMessages received by subscribed nodes. It owns the goroutine's
// lifetime: Stop signals it, Wait blocks until it exits, and the event
// channel is closed when the run completes.
type Session struct {
	events chan Event

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	err      error
}

// RunSession starts the simulation in the background for d of virtual
// time, streaming messages received by the subscribed nodes. The network
// must not be used directly while the session runs; the event channel is
// closed when the session finishes. A negative d ends the session at once,
// and Wait returns the error.
func (n *Network) RunSession(d time.Duration, subscribe ...NodeID) *Session {
	s := &Session{
		events: make(chan Event, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, id := range subscribe {
		if node, ok := n.nodes[id]; ok {
			nodeID := id
			nd := node
			nd.OnMessage(func(msg NodeMessage) {
				// Runs on the delivering shard's goroutine; blocking here
				// paces the simulation to the consumer. The timestamp is the
				// node's local clock. A stop while blocked halts the group
				// before its next event.
				select {
				case s.events <- Event{At: nd.Now(), Node: nodeID, Msg: msg}:
				case <-s.stop:
					n.group.Stop()
				}
			})
		}
	}
	n.start()
	deadline := n.Now() + d
	// Stop requests arrive asynchronously through the group's atomic stop
	// flag, which this watcher trips when the consumer calls Session.Stop;
	// every shard halts before its next event.
	go func() {
		select {
		case <-s.stop:
			n.group.Stop()
		case <-s.done:
		}
	}()
	go func() {
		defer close(s.done)
		defer close(s.events)
		err := n.run(deadline)
		select {
		case <-s.stop:
			s.err = ErrSessionStopped
		default:
			s.err = err
		}
	}()
	return s
}

// Events returns the stream of subscribed messages. It is closed when the
// session ends.
func (s *Session) Events() <-chan Event {
	return s.events
}

// Stop asks the session to end early. It is safe to call multiple times
// and from any goroutine.
func (s *Session) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Wait blocks until the session goroutine exits and returns its error
// (nil on a completed run, ErrSessionStopped after Stop).
func (s *Session) Wait() error {
	<-s.done
	return s.err
}
