package exec

import (
	"encoding/binary"
	"math"

	"repro/internal/types"
)

// Group keys: a binary, kind-tagged, length-prefixed encoding of a tuple of
// datums, used as the hash-map key by Agg/HashAgg, Distinct and DISTINCT
// aggregates. Two tuples encode to the same bytes exactly when they belong
// to the same group:
//
//   - every value carries a kind tag, so NULL never meets the string 'NULL'
//   - strings and bytes are length-prefixed, so ('p, q','r') never meets
//     ('p','q, r')
//   - INT and integral FLOAT share one tag and an exact int64 payload, so
//     INT 3 and FLOAT 3.0 group together (as types.Compare orders them)
//     while distinct int64s above 2^53 stay apart
//
// Encoders append to a caller-owned buffer; probing a map with
// m[string(buf)] does not allocate, so a key string is allocated only when
// a new group is inserted.

// Group-key kind tags.
const (
	keyNull byte = iota
	keyBool
	keyNum   // INT, or FLOAT with an exact int64 value
	keyFloat // any other FLOAT (NaNs canonicalized)
	keyString
	keyBytes
	keyTime
)

// AppendKeyNull appends the encoding of NULL.
func AppendKeyNull(buf []byte) []byte { return append(buf, keyNull) }

// AppendKeyBool appends the encoding of a BOOL.
func AppendKeyBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, keyBool, 1)
	}
	return append(buf, keyBool, 0)
}

// AppendKeyInt appends the encoding of an INT.
func AppendKeyInt(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, keyNum), uint64(v))
}

// AppendKeyFloat appends the encoding of a FLOAT. Integral values inside
// the int64 range (including -0) encode exactly as the equal INT.
func AppendKeyFloat(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && v >= math.MinInt64 && v < math.MaxInt64 {
		return AppendKeyInt(buf, int64(v))
	}
	if v != v {
		v = math.NaN() // every NaN is one group
	}
	return binary.BigEndian.AppendUint64(append(buf, keyFloat), math.Float64bits(v))
}

// AppendKeyString appends the encoding of a TEXT value.
func AppendKeyString(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(append(buf, keyString), uint64(len(v)))
	return append(buf, v...)
}

// AppendKeyTime appends the encoding of a TIMESTAMP given as UnixNano.
func AppendKeyTime(buf []byte, unixNano int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, keyTime), uint64(unixNano))
}

// AppendKey appends the group-key encoding of one datum.
func AppendKey(buf []byte, d types.Datum) []byte {
	switch d.Kind() {
	case types.KindBool:
		return AppendKeyBool(buf, d.Bool())
	case types.KindInt:
		return AppendKeyInt(buf, d.Int())
	case types.KindFloat:
		return AppendKeyFloat(buf, d.Float())
	case types.KindString:
		return AppendKeyString(buf, d.Str())
	case types.KindBytes:
		b := d.Bytes()
		buf = binary.AppendUvarint(append(buf, keyBytes), uint64(len(b)))
		return append(buf, b...)
	case types.KindTime:
		return AppendKeyTime(buf, d.Time().UnixNano())
	default:
		return AppendKeyNull(buf)
	}
}

// AppendRowKey appends the group-key encoding of a tuple.
func AppendRowKey(buf []byte, row types.Row) []byte {
	for _, d := range row {
		buf = AppendKey(buf, d)
	}
	return buf
}
