package clusterd

import (
	"io"
	"net"
	"sync"
	"time"
)

// relay is one orchestrator-run link shaper: the shaped sender's
// directory entry points at the relay listener, and the relay applies
// the LinkShape before (or instead of) forwarding to the real target.
// Partition closes accepted connections immediately (the sender's
// handshake dies at once); Drop reads and discards forever without
// answering (the sender's handshake times out); Delay pipes both
// directions but holds each forward-path chunk back by the configured
// amount. A connection carries frames both ways (netwire's links are
// unordered pairs), so only the frames From writes on a connection it
// dialed are shaped; To's replies on it come back unshaped, and a
// connection To dialed does not pass the relay at all.
type relay struct {
	shape  LinkShape
	ln     net.Listener
	target func() (string, bool) // live lookup: restarts move the real addr

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func newRelay(shape LinkShape, target func() (string, bool)) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{shape: shape, ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr is what the shaped sender's directory entry carries.
func (r *relay) Addr() string { return r.ln.Addr().String() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		if r.shape.Partition {
			conn.Close()
			continue
		}
		if !r.track(conn) {
			conn.Close()
			return
		}
		r.wg.Add(1)
		go r.serve(conn)
	}
}

func (r *relay) track(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *relay) untrack(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

func (r *relay) serve(src net.Conn) {
	defer r.wg.Done()
	defer r.untrack(src)
	defer src.Close()
	if r.shape.Drop {
		io.Copy(io.Discard, src)
		return
	}
	addr, ok := r.target()
	if !ok {
		return
	}
	dst, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return
	}
	if !r.track(dst) {
		dst.Close()
		return
	}
	defer r.untrack(dst)
	defer dst.Close()
	done := make(chan struct{}, 2)
	go func() { // reverse path (HelloAck, and the To end's frames): unshaped
		io.Copy(src, dst)
		closeWrite(src)
		done <- struct{}{}
	}()
	go func() { // forward path: per-chunk delay
		delay := time.Duration(r.shape.Delay * float64(time.Second))
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if delay > 0 {
					time.Sleep(delay)
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		closeWrite(dst)
		done <- struct{}{}
	}()
	// A half-close passes through, so a node that retires the connection
	// still reads what its peer wrote meanwhile; the pipe ends when both
	// directions have.
	<-done
	<-done
}

// closeWrite half-closes a piped connection's sending side.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// Close stops the listener and every piped connection, then waits for
// the serving goroutines.
func (r *relay) Close() {
	r.mu.Lock()
	r.closed = true
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	r.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}
