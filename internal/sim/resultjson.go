package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"nucasim/internal/llc"
)

// EncodeResult renders r as indented JSON: byte for byte what a
// json.Encoder with SetIndent("", "  ") writes, trailing newline
// included. The adaptive scheme's SetStats rows (one per global set,
// nearly all of a telemetry-on result) are rendered here directly with
// strconv into one buffer of the exact size; encoding/json renders the
// rest of the result, and the rows are spliced in where SetStats sits.
// TestEncodeResultMatchesEncoder holds the bytes to the encoder's.
func EncodeResult(r Result) ([]byte, error) {
	rows := r.SetStats
	r.SetStats = nil
	e := resultEncoders.Get().(*resultEncoder)
	if err := e.enc.Encode(r); err != nil {
		return nil, err
	}
	head := e.buf.Bytes()
	var out []byte
	if len(rows) == 0 {
		out = bytes.Clone(head)
	} else {
		key := setStatsSuccessor(r)
		at := bytes.LastIndex(head, []byte("\n  \""+key+"\":")) + 1
		if at == 0 {
			return nil, fmt.Errorf("sim: encoding result: no top-level %q key to place SetStats before", key)
		}
		out = make([]byte, 0, len(head)+setStatsLen(rows))
		out = append(out, head[:at]...)
		out = appendSetStats(out, rows)
		out = append(out, head[at:]...)
	}
	e.buf.Reset()
	resultEncoders.Put(e)
	return out, nil
}

// resultEncoder pairs a json.Encoder with the buffer it writes into, so
// a pooled pair reuses both the buffer and the encoder's indent buffer.
type resultEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var resultEncoders = sync.Pool{New: func() any {
	e := new(resultEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// resultFieldsAfterSetStats are the fields Result declares after
// SetStats, in order. The rows are spliced in before the first of them
// that is present; Throughput always is.
var resultFieldsAfterSetStats = []string{"ReplayEpochsVerified", "ReplayVerifyError", "Throughput"}

// setStatsSuccessor names the top-level key that follows SetStats in
// r's rendering. Only top-level keys start a line with exactly two
// spaces and a quote (a JSON string holds no raw newline), so the
// search for it cannot match inside a value.
func setStatsSuccessor(r Result) string {
	switch {
	case r.ReplayEpochsVerified != 0:
		return resultFieldsAfterSetStats[0]
	case r.ReplayVerifyError != "":
		return resultFieldsAfterSetStats[1]
	}
	return resultFieldsAfterSetStats[2]
}

// setStatsFields are llc.SetStats's fields in declaration order, which
// is the order encoding/json writes them and setStatsValues returns
// them.
var setStatsFields = [...]string{"Fills", "Swaps", "Migrations", "Demotions", "Evictions", "Steals"}

func setStatsValues(s llc.SetStats) [len(setStatsFields)]uint64 {
	return [...]uint64{s.Fills, s.Swaps, s.Migrations, s.Demotions, s.Evictions, s.Steals}
}

const (
	setStatsOpen  = "  \"SetStats\": [\n"
	setStatsClose = "  ],\n"
	rowOpen       = "    {\n"
	rowClose      = "    }"
	fieldIndent   = "      \""
)

// appendSetStats appends the indented "SetStats" member of a top-level
// object, trailing comma and newline included.
func appendSetStats(out []byte, rows []llc.SetStats) []byte {
	out = append(out, setStatsOpen...)
	for i, s := range rows {
		if i > 0 {
			out = append(out, ",\n"...)
		}
		out = append(out, rowOpen...)
		for f, v := range setStatsValues(s) {
			out = append(out, fieldIndent...)
			out = append(out, setStatsFields[f]...)
			out = append(out, "\": "...)
			out = strconv.AppendUint(out, v, 10)
			if f < len(setStatsFields)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		out = append(out, rowClose...)
	}
	return append(out, "\n"+setStatsClose...)
}

// setStatsLen is the length appendSetStats adds for rows.
func setStatsLen(rows []llc.SetStats) int {
	perRow := len(rowOpen) + len(rowClose) + len(",\n")
	for _, name := range setStatsFields {
		perRow += len(fieldIndent) + len(name) + len("\": ") + len(",\n")
	}
	perRow-- // the last field has no comma
	n := len(setStatsOpen) + len(rows)*perRow - len(",\n") + len("\n"+setStatsClose)
	for _, s := range rows {
		for _, v := range setStatsValues(s) {
			n += decimalLen(v)
		}
	}
	return n
}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}
