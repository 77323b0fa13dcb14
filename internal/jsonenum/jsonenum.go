// Package jsonenum is the JSON codec shared by the repository's named
// enums (dls.Technique, core.Approach, hdls.App). Each encodes as its name
// in a JSON string; this package builds and reads that string without a
// nested encoding/json round trip, which every config decode and every
// Config.Hash would otherwise pay once per enum field.
package jsonenum

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Marshal returns name as a JSON string. It only quotes: callers pass enum
// names, which are plain ASCII that json.Marshal would not escape, so the
// bytes equal json.Marshal(name).
func Marshal(name string) []byte {
	b := make([]byte, 0, len(name)+2)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"')
}

// Unmarshal decodes the JSON value data as an enum name. A plain quoted
// name goes to match, which reads the name in place without copying it; a
// name match does not accept goes to parse as a string, for its value or
// its error. Anything else — an escaped string, null, a non-string — is
// first decoded by json.Unmarshal into a string, and a failure there reads
// "<what> must be a JSON string: <cause>". match must agree with parse on
// every name it accepts, so every input yields the value and error text of
// that json.Unmarshal-then-parse reference.
func Unmarshal[T any](data []byte, what string, match func([]byte) (T, bool), parse func(string) (T, error)) (T, error) {
	if body, ok := plainBody(data); ok {
		if v, ok := match(body); ok {
			return v, nil
		}
		return parse(string(body))
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var zero T
		return zero, fmt.Errorf("%s must be a JSON string: %w", what, err)
	}
	return parse(s)
}

// plainBody returns the contents of data when data is one JSON string
// whose every byte stands for itself: ASCII from the space up, no quote,
// no backslash. json.Unmarshal decodes such a string to exactly these bytes.
func plainBody(data []byte) ([]byte, bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return nil, false
	}
	body := data[1 : len(data)-1]
	for _, b := range body {
		if b < 0x20 || b >= 0x80 || b == '"' || b == '\\' {
			return nil, false
		}
	}
	return body, true
}

// Fold normalizes the plain name s into buf the way the parsers normalize
// a string: leading and trailing spaces trimmed, the bytes in drop
// removed, and letters mapped to upper case if upper is set, else to lower
// case. On the ASCII of a plain name that equals strings.TrimSpace followed
// by the removal and strings.ToUpper or strings.ToLower. It reports false
// when the result does not fit buf, which no known name does.
func Fold(buf, s []byte, drop string, upper bool) ([]byte, bool) {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	n := 0
	for _, c := range s {
		if strings.IndexByte(drop, c) >= 0 {
			continue
		}
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if n == len(buf) {
			return nil, false
		}
		buf[n] = c
		n++
	}
	return buf[:n], true
}
