package durable

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Queue is an acknowledged work queue over the journal: producers Append
// payloads, consumers Ack sequence numbers once the work is safely
// handed off, and a restart replays exactly the appended-but-unacked
// suffix. Both the collector's event stream and the agent's pending
// diagnosis uploads are instances of this shape.
//
// Queue records share the journal's durability semantics: under
// FsyncAlways an Append that returned is replayed after any crash unless
// its Ack also reached the disk.
type Queue struct {
	j *Journal

	mu      sync.Mutex
	next    uint64            // next sequence number to assign
	unacked map[uint64][]byte // appended, not yet acked (in-memory mirror)
	order   []uint64          // unacked seqs in append order
}

// QueueItem is one recovered queue entry.
type QueueItem struct {
	Seq     uint64
	Payload []byte
}

// Queue record layout: 1-byte kind (0 = item, 1 = ack) | u64 seq (LE) |
// payload (items only).
const (
	qKindItem = 0
	qKindAck  = 1
)

// OpenQueue opens (creating if needed) a queue in dir and replays the
// journal to rebuild the unacked set. Pending() returns what survived.
func OpenQueue(dir string, opt Options) (*Queue, error) {
	j, err := Open(dir, opt)
	if err != nil {
		return nil, err
	}
	q := &Queue{j: j, unacked: map[uint64][]byte{}}
	err = j.Replay(func(p []byte) error {
		if len(p) < 9 {
			return nil // foreign record; tolerate
		}
		seq := binary.LittleEndian.Uint64(p[1:9])
		if seq >= q.next {
			q.next = seq + 1
		}
		switch p[0] {
		case qKindItem:
			if _, dup := q.unacked[seq]; !dup {
				q.order = append(q.order, seq)
			}
			q.unacked[seq] = append([]byte(nil), p[9:]...)
		case qKindAck:
			if _, ok := q.unacked[seq]; ok {
				delete(q.unacked, seq)
				for i, s := range q.order {
					if s == seq {
						q.order = append(q.order[:i], q.order[i+1:]...)
						break
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	return q, nil
}

// Pending returns the unacknowledged items in append order — after Open,
// exactly the entries a crash interrupted.
func (q *Queue) Pending() []QueueItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QueueItem, 0, len(q.order))
	for _, seq := range q.order {
		out = append(out, QueueItem{Seq: seq, Payload: append([]byte(nil), q.unacked[seq]...)})
	}
	return out
}

// Len returns the number of unacknowledged items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.unacked)
}

// Append journals one payload and returns its sequence number.
func (q *Queue) Append(payload []byte) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	seq := q.next
	rec := make([]byte, 9+len(payload))
	rec[0] = qKindItem
	binary.LittleEndian.PutUint64(rec[1:9], seq)
	copy(rec[9:], payload)
	if err := q.j.Append(rec); err != nil {
		return 0, err
	}
	q.next++
	q.unacked[seq] = append([]byte(nil), payload...)
	q.order = append(q.order, seq)
	return seq, nil
}

// Ack journals the completion of seq; an acked item is never replayed.
func (q *Queue) Ack(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.unacked[seq]; !ok {
		return fmt.Errorf("durable: ack of unknown seq %d", seq)
	}
	var rec [9]byte
	rec[0] = qKindAck
	binary.LittleEndian.PutUint64(rec[1:9], seq)
	if err := q.j.Append(rec[:]); err != nil {
		return err
	}
	delete(q.unacked, seq)
	for i, s := range q.order {
		if s == seq {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
	return nil
}

// Compact rewrites the queue to just its unacked suffix: rotate to a
// fresh segment, re-journal the surviving items, drop everything older.
// Bounded work — the unacked set is the consumer's backlog, which
// admission control bounds elsewhere.
func (q *Queue) Compact() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	seg, err := q.j.Rotate()
	if err != nil {
		return err
	}
	for _, seq := range q.order {
		payload := q.unacked[seq]
		rec := make([]byte, 9+len(payload))
		rec[0] = qKindItem
		binary.LittleEndian.PutUint64(rec[1:9], seq)
		copy(rec[9:], payload)
		if err := q.j.Append(rec); err != nil {
			return err
		}
	}
	return q.j.DropBefore(seg)
}

// Sync forces outstanding appends to stable storage.
func (q *Queue) Sync() error { return q.j.Sync() }

// Close closes the underlying journal.
func (q *Queue) Close() error { return q.j.Close() }
