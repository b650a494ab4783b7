// Package jsonfmt renders the numbers of hand-framed JSON lines byte for
// byte as encoding/json writes them. The journal's success lines and the
// measurement protocol's request and response lines are built with it, so
// they match json.Marshal without its reflection and allocations.
package jsonfmt

import (
	"math"
	"strconv"
)

// AppendFloat appends f in encoding/json's float64 format: ES6 number to
// string, 'f' notation unless the magnitude is below 1e-6 or at least
// 1e21, and no leading zero in a negative exponent. f must be finite;
// encoding/json refuses NaN and ±Inf.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendInts appends xs as encoding/json writes an []int: null for a nil
// slice, otherwise the elements in brackets, comma-separated.
func AppendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}
