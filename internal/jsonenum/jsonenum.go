// Package jsonenum is the JSON codec shared by the repository's named
// enums (dls.Technique, core.Approach, hdls.App). Each encodes as its name
// in a JSON string; this package builds and reads that string without a
// nested encoding/json round trip, which every config decode and every
// Config.Hash would otherwise pay once per enum field.
package jsonenum

import (
	"encoding/json"
	"fmt"
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

// Unmarshal decodes the JSON value data as an enum name and maps it with
// parse. A plain quoted name goes straight to parse. Anything else — an
// escaped string, null, a non-string — is first decoded by json.Unmarshal
// into a string, and a failure there reads "<what> must be a JSON string:
// <cause>". Every input therefore yields the value and error text of that
// json.Unmarshal-then-parse reference.
func Unmarshal[T any](data []byte, what string, parse func(string) (T, error)) (T, error) {
	if s, ok := plainString(data); ok {
		return parse(s)
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var zero T
		return zero, fmt.Errorf("%s must be a JSON string: %w", what, err)
	}
	return parse(s)
}

// plainString returns the contents of data when data is one JSON string
// whose every byte stands for itself: ASCII from the space up, no quote,
// no backslash. json.Unmarshal decodes such a string to exactly these bytes.
func plainString(data []byte) (string, bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return "", false
	}
	body := data[1 : len(data)-1]
	for _, b := range body {
		if b < 0x20 || b >= 0x80 || b == '"' || b == '\\' {
			return "", false
		}
	}
	return string(body), true
}
