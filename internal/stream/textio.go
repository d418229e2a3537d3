package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Text format for dynamic streams, used by the command-line tool:
//
//	n <vertices>          header (required, first non-comment line)
//	+ <u> <v> [w]         insert edge {u, v} with optional weight
//	- <u> <v> [w]         delete edge {u, v}
//	# ...                 comment
//
// Lines are whitespace-separated; weights default to 1.

// WriteText serializes a stream in the text format.
func WriteText(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", s.N()); err != nil {
		return err
	}
	err := s.Replay(func(u Update) error {
		op := "+"
		if u.Delta < 0 {
			op = "-"
		}
		if u.W != 1 {
			_, err := fmt.Fprintf(bw, "%s %d %d %g\n", op, u.U, u.V, u.W)
			return err
		}
		_, err := fmt.Fprintf(bw, "%s %d %d\n", op, u.U, u.V)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// parseTextHeader parses the "n <vertices>" header line (already
// trimmed, known non-blank and non-comment).
func parseTextHeader(line string, lineNo int) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "n" {
		return 0, fmt.Errorf("stream: line %d: expected header \"n <vertices>\", got %q", lineNo, line)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("stream: line %d: bad vertex count %q", lineNo, fields[1])
	}
	return n, nil
}

// parseTextUpdate parses one "± u v [w]" line (already trimmed, known
// non-blank and non-comment). Endpoint-range and self-loop validation
// is the caller's job (MemoryStream.Append or checkUpdate).
func parseTextUpdate(line string, lineNo int) (Update, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 || len(fields) > 4 {
		return Update{}, fmt.Errorf("stream: line %d: expected \"± u v [w]\", got %q", lineNo, line)
	}
	var delta int
	switch fields[0] {
	case "+":
		delta = 1
	case "-":
		delta = -1
	default:
		return Update{}, fmt.Errorf("stream: line %d: op must be + or -, got %q", lineNo, fields[0])
	}
	u, err := strconv.Atoi(fields[1])
	if err != nil {
		return Update{}, fmt.Errorf("stream: line %d: bad endpoint %q", lineNo, fields[1])
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		return Update{}, fmt.Errorf("stream: line %d: bad endpoint %q", lineNo, fields[2])
	}
	w := 1.0
	if len(fields) == 4 {
		w, err = strconv.ParseFloat(fields[3], 64)
		// NaN must be rejected explicitly (NaN <= 0 is false), and an
		// infinite weight has no weight class.
		if err != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Update{}, fmt.Errorf("stream: line %d: bad weight %q", lineNo, fields[3])
		}
	}
	return Update{U: u, V: v, Delta: delta, W: w}, nil
}

// ReadText parses a stream in the text format, materializing it into a
// MemoryStream. For constant-memory ingest of the same bytes use
// NewReaderSource, which shares this parser line for line.
func ReadText(r io.Reader) (*MemoryStream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var ms *MemoryStream
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ms == nil {
			n, err := parseTextHeader(line, lineNo)
			if err != nil {
				return nil, err
			}
			ms = NewMemoryStream(n)
			continue
		}
		u, err := parseTextUpdate(line, lineNo)
		if err != nil {
			return nil, err
		}
		if err := ms.Append(u); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ms == nil {
		return nil, fmt.Errorf("stream: empty input (missing \"n <vertices>\" header)")
	}
	return ms, nil
}
