package services

import (
	"testing"

	"diagnet/internal/netsim"
)

func nearestStub(client int) int { return client }

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 12 {
		t.Fatalf("catalog size %d", len(cat))
	}
	seen := map[string]bool{}
	serviceRegions := map[int]bool{netsim.GRAV: true, netsim.SEAT: true, netsim.SING: true}
	kinds := map[Kind]int{}
	for i, s := range cat {
		if s.ID != i {
			t.Fatalf("service %d has ID %d", i, s.ID)
		}
		if !serviceRegions[s.Host] {
			t.Fatalf("service %s hosted outside the paper's service regions", s.Name())
		}
		if seen[s.Name()] {
			t.Fatalf("duplicate service %s", s.Name())
		}
		seen[s.Name()] = true
		kinds[s.Kind]++
	}
	for k := Kind(0); k < NumKinds; k++ {
		if kinds[k] != 2 {
			t.Fatalf("kind %s instantiated %d times, want 2", k, kinds[k])
		}
	}
}

func TestTrainingAndExtraSplit(t *testing.T) {
	if len(TrainingSet()) != 8 {
		t.Fatalf("training set %d, want 8 (paper §IV-F)", len(TrainingSet()))
	}
	for i, s := range TrainingSet() {
		if s.ID != i {
			t.Fatalf("training service %d has ID %d: not the catalog's first eight", i, s.ID)
		}
	}
	if n := len(Catalog()) - len(TrainingSet()); n != 4 {
		t.Fatalf("%d services outside the training set, want 4", n)
	}
}

func TestResourcesPerKind(t *testing.T) {
	cases := []struct {
		kind      Kind
		resources int
		depHost   int // -1: no dependency, -2: nearest(client)
	}{
		{Single, 1, -1},
		{ScriptFar, 2, netsim.BEAU},
		{ScriptCDN, 2, -2},
		{ImageLocal, 2, -3}, // same host, reused connection
		{ImageFar, 2, netsim.BEAU},
		{ImageCDN, 2, -2},
	}
	const client = netsim.TOKY
	for _, c := range cases {
		s := Service{ID: 0, Kind: c.kind, Host: netsim.GRAV}
		res := s.Resources(client, nearestStub)
		if len(res) != c.resources {
			t.Fatalf("%s: %d resources, want %d", c.kind, len(res), c.resources)
		}
		if res[0].Host != netsim.GRAV {
			t.Fatalf("%s: HTML not from host", c.kind)
		}
		switch c.depHost {
		case -1:
		case -2:
			if res[1].Host != client {
				t.Fatalf("%s: CDN dependency from %d, want nearest %d", c.kind, res[1].Host, client)
			}
		case -3:
			if res[1].Host != netsim.GRAV || !res[1].ReuseConn {
				t.Fatalf("%s: local image must reuse the host connection", c.kind)
			}
		default:
			if res[1].Host != c.depHost {
				t.Fatalf("%s: dependency from %d, want %d", c.kind, res[1].Host, c.depHost)
			}
		}
	}
}

func TestImageServicesAreHeavy(t *testing.T) {
	pageBytes := func(s Service) int {
		var sum int
		for _, r := range s.Resources(netsim.TOKY, nearestStub) {
			sum += r.Bytes
		}
		return sum
	}
	light := pageBytes(Service{Kind: Single, Host: netsim.GRAV})
	heavy := pageBytes(Service{Kind: ImageFar, Host: netsim.GRAV})
	if heavy < 50*light {
		t.Fatalf("image service only %dx heavier than single", heavy/light)
	}
}

// Fig. 10 needs services hosted at GRAV that also depend on BEAU, so that
// simultaneous BEAU+GRAV faults can both be relevant at once.
func TestCatalogHasBothFaultSensitiveServices(t *testing.T) {
	foundFar := false
	for _, s := range Catalog() {
		if s.Host == netsim.GRAV && (s.Kind == ScriptFar || s.Kind == ImageFar) {
			foundFar = true
		}
	}
	if !foundFar {
		t.Fatal("no GRAV-hosted BEAU-dependent service in catalog")
	}
}

func TestKindString(t *testing.T) {
	if Single.String() != "single" || ImageCDN.String() != "image.cdn" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("out-of-range kind name empty")
	}
	s := Service{Kind: ScriptFar, Host: netsim.SEAT}
	if s.Name() != "script.far@SEAT" {
		t.Fatalf("Name = %s", s.Name())
	}
}
