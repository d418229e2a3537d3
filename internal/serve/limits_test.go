package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestUpdateBodyLimit: an update body past the limit is refused with
// 413 and a JSON error in either format, nothing of it is applied, and
// a body under the limit still goes through.
func TestUpdateBodyLimit(t *testing.T) {
	s, ts := newForestServer(t, 16, 3, ServerConfig{})
	s.maxBody = 1 << 10
	post := func(contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/update", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(raw, &e) // a 200 carries no error field
		return resp.StatusCode, e.Error
	}
	text := strings.Repeat("+ 1 2\n- 1 2\n", 200) // 2 400 bytes of valid lines
	js := `{"updates":[` + strings.Repeat(`{"u":1,"v":2,"delta":1},{"u":1,"v":2,"delta":-1},`, 40) +
		`{"u":3,"v":4,"delta":1}]}` // ~2 KB of valid JSON
	for _, tc := range []struct{ name, contentType, body string }{
		{"text", "text/plain", text},
		{"json", "application/json", js},
	} {
		code, msg := post(tc.contentType, tc.body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "1024 bytes") {
			t.Errorf("%s body of %d bytes: status %d error %q, want 413 naming the limit", tc.name, len(tc.body), code, msg)
		}
	}
	if got := s.backends["forest"].Applied(); got != 0 {
		t.Errorf("refused bodies applied %d updates", got)
	}
	if code, msg := post("text/plain", "+ 1 2\n+ 2 3\n"); code != http.StatusOK {
		t.Errorf("small body: status %d error %q", code, msg)
	}
	if got := s.backends["forest"].Applied(); got != 2 {
		t.Errorf("applied %d updates after the small body, want 2", got)
	}
}

// serveOn starts s.HTTPServer on a loopback listener and returns its
// address.
func serveOn(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.HTTPServer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed at cleanup
	}()
	t.Cleanup(func() {
		hs.Close()
		<-done
	})
	return ln.Addr().String()
}

// closedWithin reports whether the server closes conn before the
// deadline: reads drain whatever it sent first (a 408, nothing) and
// must end in EOF or a reset, not in our own read deadline.
func closedWithin(t *testing.T, conn net.Conn, d time.Duration) bool {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	return !(errors.As(err, &ne) && ne.Timeout())
}

// TestHTTPServerReadHeaderTimeout: a client that opens a connection and
// never finishes its request headers is disconnected.
func TestHTTPServerReadHeaderTimeout(t *testing.T) {
	s, _ := newForestServer(t, 8, 1, ServerConfig{})
	s.readHeaderTimeout = 50 * time.Millisecond
	conn, err := net.Dial("tcp", serveOn(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil { // no blank line
		t.Fatal(err)
	}
	if !closedWithin(t, conn, 5*time.Second) {
		t.Fatal("connection with unfinished headers still open after 100× the header timeout")
	}
}

// TestHTTPServerIdleTimeout: a keep-alive connection is served, then
// closed by the server once it has sat idle.
func TestHTTPServerIdleTimeout(t *testing.T) {
	s, _ := newForestServer(t, 8, 1, ServerConfig{})
	s.idleTimeout = 50 * time.Millisecond
	conn, err := net.Dial("tcp", serveOn(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("keep-alive request: status %d close=%v err %v", resp.StatusCode, resp.Close, err)
	}
	if !closedWithin(t, conn, 5*time.Second) {
		t.Fatal("idle connection still open after 100× the idle timeout")
	}
}
