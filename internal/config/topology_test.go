package config

import (
	"bytes"
	"strings"
	"testing"

	"uswg/internal/netsim"
)

func TestResolveTopologyLegacyIdentity(t *testing.T) {
	s := Default()
	r := s.FS.ResolveTopology()
	if r.Servers != 1 || r.Pool != 0 || r.Placement != PlaceShard {
		t.Errorf("legacy resolution = %+v", r)
	}
	if r.Server != s.FS.Server {
		t.Errorf("server config changed: %+v != %+v", r.Server, s.FS.Server)
	}
	if r.Client != s.FS.Client {
		t.Errorf("client config changed: %+v != %+v", r.Client, s.FS.Client)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"negative servers", Topology{Servers: -1}},
		{"negative pool", Topology{ClientPool: -3}},
		{"bad placement", Topology{Placement: "scatter"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.topo.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	var nilTopo *Topology
	if err := nilTopo.Validate(); err != nil {
		t.Errorf("nil topology: %v", err)
	}
}

func TestSpecValidateTopologyByKind(t *testing.T) {
	s := Default()
	s.FS.Topology = &Topology{Servers: 2, ClientPool: 8}
	if err := s.Validate(); err != nil {
		t.Errorf("nfs topology: %v", err)
	}
	s.FS = FSSpec{Kind: FSLocal, Topology: &Topology{Servers: 2}}
	if err := s.Validate(); err == nil {
		t.Error("local fs with topology should be rejected")
	}
}

// TestTopologySpecRoundTrip proves Encode(Decode(x)) is a fixed point for a
// spec using the topology block alongside tuned server and wire knobs, and
// that the resolved fleet is unchanged across the round trip.
func TestTopologySpecRoundTrip(t *testing.T) {
	s := Default()
	s.FS.Server.NFSDs = 6
	s.FS.Client.Net = netsim.Config{LatencyPerMessage: 77, PerByte: 2}
	s.FS.Topology = &Topology{Servers: 4, ClientPool: 16, Placement: PlaceReplicate}
	want := s.FS.ResolveTopology()

	var one bytes.Buffer
	if err := s.Encode(&one); err != nil {
		t.Fatal(err)
	}
	first := one.String()
	back, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.FS.ResolveTopology(); got != want {
		t.Errorf("resolution changed across decode:\n got %+v\nwant %+v", got, want)
	}
	var two bytes.Buffer
	if err := back.Encode(&two); err != nil {
		t.Fatal(err)
	}
	second := two.String()
	reback, err := Decode(strings.NewReader(second))
	if err != nil {
		t.Fatalf("re-decode of encoded spec: %v", err)
	}
	var three bytes.Buffer
	if err := reback.Encode(&three); err != nil {
		t.Fatal(err)
	}
	if second != three.String() {
		t.Error("Encode(Decode(x)) is not a fixed point")
	}
}

// TestResolveTopologyShape checks that the block sets only the fleet shape:
// every island takes its server and client (wire included) from fs.server
// and fs.client.
func TestResolveTopologyShape(t *testing.T) {
	s := Default()
	s.FS.Server.NFSDs = 7
	s.FS.Client.Net = netsim.Config{LatencyPerMessage: 123, PerByte: 4}
	s.FS.Topology = &Topology{Servers: 4, ClientPool: 16, Placement: PlaceReplicate}
	r := s.FS.ResolveTopology()
	if r.Servers != 4 || r.Pool != 16 || r.Placement != PlaceReplicate {
		t.Errorf("shape = %+v", r)
	}
	if r.Server != s.FS.Server || r.Client != s.FS.Client {
		t.Errorf("per-island config = %+v / %+v, want fs.server / fs.client", r.Server, r.Client)
	}
}

// TestTopologyRemovedKeysRejected pins the one spelling per knob: server,
// client, wire and nfsd settings live in fs.server and fs.client only, so a
// spec that writes them inside fs.topology fails to decode loudly instead of
// being silently ignored.
func TestTopologyRemovedKeysRejected(t *testing.T) {
	s := Default()
	s.FS.Topology = &Topology{Servers: 2, ClientPool: 8}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := Decode(strings.NewReader(doc)); err != nil {
		t.Fatalf("shape-only topology: %v", err)
	}
	const shape = `"servers": 2`
	if !strings.Contains(doc, shape) {
		t.Fatalf("encoded spec lacks %s:\n%s", shape, doc)
	}
	for _, key := range []string{
		`"server": {"NFSDs": 2}`,
		`"client": {"WireBlock": 1024}`,
		`"net": {"LatencyPerMessage": 10}`,
		`"nfsds": 5`,
	} {
		bad := strings.Replace(doc, shape, shape+", "+key, 1)
		_, err := Decode(strings.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("topology with %s: err = %v, want an unknown-field error", key, err)
		}
	}
}
