package serve

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendQueryResponse appends r to b byte for byte as
// json.NewEncoder(w).Encode(r) writes it — field order, omitempty,
// float formatting and the closing newline included — without
// reflecting over every edge. It reports false, leaving b as it was,
// for a weight JSON cannot carry (NaN or an infinity), which the
// reflective encoder refuses.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, bool) {
	start := len(b)
	b = appendJSONString(append(b, `{"target":`...), r.Target)
	b = strconv.AppendInt(append(b, `,"applied":`...), r.Applied, 10)
	b = appendJSONString(append(b, `,"summary":`...), r.Summary)
	if len(r.Edges) > 0 {
		b = append(b, `,"edges":[`...)
		for i, e := range r.Edges {
			if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				return b[:start], false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"u":`...), int64(e.U), 10)
			b = strconv.AppendInt(append(b, `,"v":`...), int64(e.V), 10)
			b = append(appendJSONFloat(append(b, `,"w":`...), e.W), '}')
		}
		b = append(b, ']')
	}
	if r.Connected != nil {
		b = strconv.AppendBool(append(b, `,"connected":`...), *r.Connected)
	}
	if r.Components != 0 {
		b = strconv.AppendInt(append(b, `,"components":`...), int64(r.Components), 10)
	}
	if r.Bipartite != nil {
		b = strconv.AppendBool(append(b, `,"bipartite":`...), *r.Bipartite)
	}
	return append(b, '}', '\n'), true
}

// appendJSONString leaves quoting and escaping to encoding/json: two
// short strings per response are not worth a second copy of its rules.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendJSONFloat formats a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// two-digit exponent trimmed of its leading zero. An integral f with
// 0 < |f| < 2^53 — every unit weight — is its own shortest digits, so
// it is written as the integer it is.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs >= 1 && abs < 1<<53 && f == math.Trunc(f) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
