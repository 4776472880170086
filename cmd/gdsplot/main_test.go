package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultPlotsMatchRecorded pins gdsplot's default output — the
// registered fig5.1/fig5.2 panels at the default flags — to the recorded
// Figure 5.1/5.2 rendering.
func TestDefaultPlotsMatchRecorded(t *testing.T) {
	want, err := os.ReadFile("testdata/fig5.1-5.2.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := plotFigures(&got, 100, 60, 12); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("default plots differ from testdata/fig5.1-5.2.txt:\n%s", got.String())
	}
}
