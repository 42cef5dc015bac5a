package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"matchsim/internal/xrand"
)

// readCase is one document and whether the reference decoder accepts it.
type readCase struct {
	name string
	doc  string
	ok   bool
}

const (
	baseTIG      = `{"kind":"tig","name":"t","n":3,"weights":[1,2,3],"edges":[{"u":0,"v":1,"w":5},{"u":2,"v":1,"w":1.5}]}`
	basePlatform = `{"kind":"resource","name":"p","n":3,"costs":[1,2,3],"links":[{"u":0,"v":1,"w":2},{"u":1,"v":2,"w":4}],"closed":true}`
)

// tigCases are TIG objects for TIG.UnmarshalJSON and platformCases
// platform objects for ResourceGraph.UnmarshalJSON; instanceCases also
// embeds each in a whole document.
var tigCases = []readCase{
	{"plain", baseTIG, true},
	{"null", `null`, true},
	{"empty object", `{}`, true},
	{"empty arrays", `{"n":0,"weights":[],"edges":[]}`, true},
	{"surrounding space", " \n\t" + baseTIG + "\r\n ", true},
	{"trailing bytes", baseTIG + `x`, false},
	{"two values", baseTIG + baseTIG, false},
	{"empty input", ``, false},
	{"array", `[1,2]`, false},
	{"upper-case keys", `{"KIND":"tig","N":2,"Weights":[1,2],"EDGES":[{"U":0,"V":1,"W":3}]}`, true},
	{"kelvin sign folds to k", `{"Kind":"tig","n":1,"weights":[1]}`, true},
	{"escaped key", `{"\u006e":1,"weights":[1]}`, true},
	{"kind is case-sensitive", `{"kind":"TIG","n":1,"weights":[1]}`, false},
	{"kind null keeps earlier", `{"kind":"graph","kind":null,"n":1,"weights":[1]}`, false},
	{"kind null", `{"kind":null,"n":1,"weights":[1]}`, true},
	{"n 2.0", `{"n":2.0,"weights":[1,2]}`, false},
	{"n 2e0", `{"n":2e0,"weights":[1,2]}`, false},
	{"n -0", `{"n":-0,"weights":[]}`, true},
	{"n too big", `{"n":9223372036854775808,"weights":[]}`, false},
	{"n string", `{"n":"1","weights":[1]}`, false},
	{"n null keeps earlier", `{"n":2,"n":null,"weights":[1,2]}`, true},
	{"negative zero weight", `{"n":2,"weights":[-0,-0.0]}`, true},
	{"weight 1e999", `{"n":1,"weights":[1e999]}`, false},
	{"weight underflows to 0", `{"n":1,"weights":[1e-400]}`, true},
	{"long and exponent floats", `{"n":4,"weights":[0.1000000000000000055511151231257827,1.7976931348623157e308,5e-324,123456789012345678]}`, true},
	{"null weight is 0", `{"n":2,"weights":[null,2]}`, true},
	{"repeat keeps storage", `{"n":3,"weights":[1,2,3,4],"weights":[9],"weights":[null,null,null]}`, true},
	{"empty array resets storage", `{"n":3,"weights":[1,2,3],"weights":[],"weights":[null,null,null]}`, true},
	{"null resets storage", `{"n":3,"weights":[1,2,3],"weights":null,"weights":[null,7,null]}`, true},
	{"weights null", `{"n":0,"weights":null}`, true},
	{"weights object", `{"n":0,"weights":{}}`, false},
	{"weight string", `{"n":1,"weights":["1"]}`, false},
	{"weight true", `{"n":1,"weights":[true]}`, false},
	{"negative weight", `{"n":1,"weights":[-1]}`, false},
	{"edge partial repeat", `{"n":2,"weights":[1,1],"edges":[{"u":0,"v":1,"w":5}],"edges":[{"w":7}]}`, true},
	{"edge null keeps storage", `{"n":3,"weights":[1,1,1],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":2}],"edges":[{"v":2}],"edges":[null,null]}`, true},
	{"edge self-loop", `{"n":2,"weights":[1,1],"edges":[{"u":1,"v":1,"w":1}]}`, false},
	{"edge out of range", `{"n":2,"weights":[1,1],"edges":[{"u":0,"v":2,"w":1}]}`, false},
	{"edge duplicate", `{"n":2,"weights":[1,1],"edges":[{"u":0,"v":1,"w":1},{"u":1,"v":0,"w":2}]}`, false},
	{"edge negative weight", `{"n":2,"weights":[1,1],"edges":[{"u":0,"v":1,"w":-1}]}`, false},
	{"edge as array", `{"n":2,"weights":[1,1],"edges":[[0,1,1]]}`, false},
	{"edge u float", `{"n":2,"weights":[1,1],"edges":[{"u":0.0,"v":1,"w":1}]}`, false},
	{"name escapes", `{"name":"a\ud800b\udc00c😀é\n\/\"\\","n":0,"weights":[]}`, true},
	{"name high surrogate then escape", `{"name":"\ud800\n","n":0,"weights":[]}`, true},
	{"name invalid utf-8", "{\"name\":\"\xff\xed\xa0\x80ok\xe2\x82\",\"n\":0,\"weights\":[]}", true},
	{"name control character", "{\"name\":\"a\x01\",\"n\":0,\"weights\":[]}", false},
	{"name bad escape", `{"name":"\x","n":0,"weights":[]}`, false},
	{"name single-quote escape", `{"name":"\'","n":0,"weights":[]}`, false},
	{"name short unicode escape", `{"name":"\u12","n":0,"weights":[]}`, false},
	{"name number", `{"name":5,"n":0,"weights":[]}`, false},
	{"unknown keys skipped", `{"x":{"a":[1,-2.5e3,{"b":null}],"c":"é","d":true},"n":1,"weights":[1]}`, true},
	{"unknown key bad JSON", `{"x":[1,],"n":1,"weights":[1]}`, false},
	{"leading zero", `{"n":01,"weights":[1]}`, false},
	{"bare minus", `{"n":1,"weights":[-]}`, false},
	{"trailing comma", `{"n":1,"weights":[1],}`, false},
	{"truncated", baseTIG[:len(baseTIG)-1], false},
}

var platformCases = []readCase{
	{"plain", basePlatform, true},
	{"null", `null`, true},
	{"dense", `{"kind":"resource","n":2,"costs":[1,2],"dense_link":[0,3,3,0]}`, true},
	{"dense empty", `{"n":0,"costs":[],"dense_link":[]}`, true},
	{"dense ignores links", `{"n":2,"costs":[1,2],"links":[{"u":0,"v":9}],"closed":"x","dense_link":[0,3,3,0]}`, false},
	{"dense ignores bad links", `{"n":2,"costs":[1,2],"links":[{"u":0,"v":9}],"dense_link":[0,3,3,0]}`, true},
	{"dense wrong size", `{"n":2,"costs":[1,2],"dense_link":[0,3,3]}`, false},
	{"dense asymmetric", `{"n":2,"costs":[1,2],"dense_link":[0,3,4,0]}`, false},
	{"dense negative zero", `{"n":2,"costs":[-0,2],"dense_link":[-0,3,3,0]}`, true},
	{"dense null then links", `{"n":2,"costs":[1,2],"dense_link":[0,3,3,0],"dense_link":null,"links":[{"u":0,"v":1,"w":2}]}`, true},
	{"costs null", `{"n":0,"costs":null}`, true},
	{"closed null keeps earlier", `{"n":3,"costs":[1,2,3],"links":[{"u":0,"v":1,"w":2},{"u":1,"v":2,"w":4}],"closed":true,"closed":null}`, true},
	{"closed disconnected", `{"n":3,"costs":[1,2,3],"links":[{"u":0,"v":1,"w":2}],"closed":true}`, false},
	{"closed number", `{"n":1,"costs":[1],"closed":1}`, false},
	{"kind resource", `{"kind":"resource","n":1,"costs":[1]}`, true},
	{"kind tig", `{"kind":"tig","n":1,"costs":[1]}`, false},
	{"negative cost", `{"n":1,"costs":[-1]}`, false},
	{"link duplicate", `{"n":2,"costs":[1,1],"links":[{"u":0,"v":1,"w":1},{"u":0,"v":1,"w":1}]}`, false},
	{"upper-case keys", `{"KIND":"resource","N":2,"COSTS":[1,2],"Dense_Link":[0,1,1,0]}`, true},
	{"blocks", `{"kind":"resource","n":3,"costs":[1,2,3],"labels":[0,0,1],"block_link":[1,4,4,2]}`, true},
	{"blocks one block", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5]}`, true},
	{"blocks singleton", `{"n":1,"costs":[1],"labels":[0],"block_link":[7]}`, true},
	{"blocks unused label", `{"n":2,"costs":[1,2],"labels":[1,1],"block_link":[0,2,2,3]}`, true},
	{"blocks empty", `{"n":0,"costs":[],"labels":[],"block_link":[]}`, true},
	{"blocks upper-case keys", `{"N":2,"Costs":[1,2],"LABELS":[0,0],"Block_Link":[5]}`, true},
	{"blocks closed ignored", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5],"closed":true}`, true},
	{"blocks null links and dense", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5],"links":null,"dense_link":null}`, true},
	{"blocks dense then null", `{"n":2,"costs":[1,2],"dense_link":[0,3,3,0],"dense_link":null,"labels":[0,0],"block_link":[5]}`, true},
	{"blocks label null keeps earlier", `{"n":2,"costs":[1,2],"labels":[1,1],"labels":[null,0],"block_link":[1,2,2,3]}`, true},
	{"blocks negative zero", `{"n":2,"costs":[1,2],"labels":[-0,0],"block_link":[-0]}`, true},
	{"blocks labels only", `{"n":2,"costs":[1,2],"labels":[0,0]}`, false},
	{"blocks table only", `{"n":2,"costs":[1,2],"block_link":[5]}`, false},
	{"blocks labels nulled", `{"n":2,"costs":[1,2],"labels":[0,0],"labels":null,"block_link":[5]}`, false},
	{"blocks both nulled", `{"n":1,"costs":[1],"labels":[0],"block_link":[5],"labels":null,"block_link":null}`, true},
	{"blocks with dense_link", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5],"dense_link":[0,3,3,0]}`, false},
	{"blocks with links", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5],"links":[{"u":0,"v":1,"w":2}]}`, false},
	{"blocks with empty links", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[5],"links":[]}`, false},
	{"blocks wrong label count", `{"n":3,"costs":[1,2,3],"labels":[0,0],"block_link":[5]}`, false},
	{"blocks label out of range", `{"n":2,"costs":[1,2],"labels":[0,2],"block_link":[1,2,2,3]}`, false},
	{"blocks negative label", `{"n":2,"costs":[1,2],"labels":[-1,0],"block_link":[1,2,2,3]}`, false},
	{"blocks label past int32", `{"n":1,"costs":[1],"labels":[2147483648],"block_link":[5]}`, false},
	{"blocks label float", `{"n":1,"costs":[1],"labels":[0.0],"block_link":[5]}`, false},
	{"blocks label string", `{"n":1,"costs":[1],"labels":["0"],"block_link":[5]}`, false},
	{"blocks labels object", `{"n":1,"costs":[1],"labels":{},"block_link":[5]}`, false},
	{"blocks table not square", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[1,2,2]}`, false},
	{"blocks table asymmetric", `{"n":2,"costs":[1,2],"labels":[0,1],"block_link":[1,4,5,2]}`, false},
	{"blocks negative link cost", `{"n":2,"costs":[1,2],"labels":[0,1],"block_link":[1,-4,-4,2]}`, false},
	{"blocks negative diagonal", `{"n":2,"costs":[1,2],"labels":[0,0],"block_link":[-1]}`, false},
	{"blocks negative cost", `{"n":2,"costs":[-1,2],"labels":[0,0],"block_link":[5]}`, false},
}

// instance assembles a document from its members.
func instance(members ...string) string {
	return "{" + strings.Join(members, ",") + "}"
}

var instanceCases = []readCase{
	{"plain", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":7`), true},
	{"upper-case keys", instance(`"TIG":`+baseTIG, `"Platform":`+basePlatform, `"SEED":7`), true},
	{"long s folds to s", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"ſeed":7`), true},
	{"escaped key", instance(`"t\u0069g":`+baseTIG, `"platform":`+basePlatform), true},
	{"no seed", instance(`"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"seed null keeps earlier", instance(`"seed":5`, `"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":null`), true},
	{"seed -1", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":-1`), false},
	{"seed -0", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":-0`), false},
	{"seed 1.0", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":1.0`), false},
	{"seed max", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":18446744073709551615`), true},
	{"seed overflow", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":18446744073709551616`), false},
	{"seed string", instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"seed":"7"`), false},
	{"missing platform", instance(`"tig":` + baseTIG), false},
	{"tig null", instance(`"tig":null`, `"platform":`+basePlatform), false},
	{"tig null then valid", instance(`"tig":null`, `"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"tig valid then null", instance(`"tig":`+baseTIG, `"tig":null`, `"platform":`+basePlatform), false},
	{"last tig wins", instance(`"tig":{"n":1,"weights":[4]}`, `"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"invalid tig then valid", instance(`"tig":{"n":2,"weights":[1]}`, `"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"invalid platform then valid", instance(`"tig":`+baseTIG, `"platform":{"n":1,"costs":[-1]}`, `"platform":`+basePlatform), false},
	{"tig array", instance(`"tig":[1]`, `"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"tig string", instance(`"tig":"x"`, `"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"platform true", instance(`"tig":`+baseTIG, `"platform":true`, `"platform":`+basePlatform), false},
	{"unknown keys skipped", instance(`"x":{"a":[1,{"b":null}],"c":"é"}`, `"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"unknown key bad JSON", instance(`"x":{"a":01}`, `"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"nesting at the limit", instance(`"x":`+strings.Repeat("[", maxDepth-1)+strings.Repeat("]", maxDepth-1), `"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"nesting past the limit", instance(`"x":`+strings.Repeat("[", maxDepth)+strings.Repeat("]", maxDepth), `"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"byte-order mark", "\xef\xbb\xbf" + instance(`"tig":`+baseTIG, `"platform":`+basePlatform), false},
	{"leading space", " \r\n\t" + instance(`"tig":`+baseTIG, `"platform":`+basePlatform), true},
	{"trailing garbage", instance(`"tig":`+baseTIG, `"platform":`+basePlatform) + `}{"garbage`, true},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"empty", ``, false},
	{"space only", " \n", false},
	{"truncated", instance(`"tig":`+baseTIG, `"platform":`+basePlatform)[:40], false},
	{"duplicate key missing colon", `{"tig" ` + baseTIG + `}`, false},
}

func init() {
	for _, c := range tigCases {
		if c.doc != "null" && strings.TrimSpace(c.doc) == c.doc {
			instanceCases = append(instanceCases, readCase{"tig " + c.name,
				instance(`"tig":`+c.doc, `"platform":{"n":1,"costs":[1],"dense_link":[0]}`), c.ok})
		}
	}
	for _, c := range platformCases {
		if c.doc != "null" {
			instanceCases = append(instanceCases, readCase{"platform " + c.name,
				instance(`"tig":{"n":0,"weights":[]}`, `"platform":`+c.doc), c.ok})
		}
	}
}

// checkReadInstance holds ReadInstance to the reference decoder on data,
// read at once and one byte per Read, and returns the reference's result.
func checkReadInstance(t *testing.T, data []byte) (*Instance, error) {
	t.Helper()
	want, wantErr := refReadInstance(bytes.NewReader(data))
	for _, rd := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		got, gotErr := ReadInstance(rd)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr == nil {
			if d := diffInstance(got, want); d != "" {
				t.Fatal(d)
			}
		}
	}
	return want, wantErr
}

// TestReadContract pins the accept/reject outcome of every contract case
// and checks the reader against the reference on each.
func TestReadContract(t *testing.T) {
	for _, c := range tigCases {
		t.Run("tig/"+c.name, func(t *testing.T) {
			want, wantErr := refUnmarshalTIG([]byte(c.doc))
			if (wantErr == nil) != c.ok {
				t.Fatalf("reference accepts %t, case says %t (%v)", wantErr == nil, c.ok, wantErr)
			}
			var got TIG
			gotErr := got.UnmarshalJSON([]byte(c.doc))
			if (gotErr == nil) != c.ok {
				t.Fatalf("reader accepts %t, want %t (%v)", gotErr == nil, c.ok, gotErr)
			}
			if c.ok {
				if d := diffTIG(&got, want); d != "" {
					t.Fatal(d)
				}
			}
		})
	}
	for _, c := range platformCases {
		t.Run("platform/"+c.name, func(t *testing.T) {
			want, wantErr := refUnmarshalResource([]byte(c.doc))
			if (wantErr == nil) != c.ok {
				t.Fatalf("reference accepts %t, case says %t (%v)", wantErr == nil, c.ok, wantErr)
			}
			var got ResourceGraph
			gotErr := got.UnmarshalJSON([]byte(c.doc))
			if (gotErr == nil) != c.ok {
				t.Fatalf("reader accepts %t, want %t (%v)", gotErr == nil, c.ok, gotErr)
			}
			if c.ok {
				if d := diffResource(&got, want); d != "" {
					t.Fatal(d)
				}
			}
		})
	}
	for _, c := range instanceCases {
		t.Run("instance/"+c.name, func(t *testing.T) {
			if _, err := checkReadInstance(t, []byte(c.doc)); (err == nil) != c.ok {
				t.Fatalf("accepted %t, case says %t (%v)", err == nil, c.ok, err)
			}
		})
	}
}

// TestReadContractValues spot-checks decoded values the contract names.
func TestReadContractValues(t *testing.T) {
	read := func(doc string) *TIG {
		t.Helper()
		var g TIG
		if err := g.UnmarshalJSON([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		return &g
	}
	if w := read(`{"n":2,"weights":[-0,1e-400]}`).Weights; math.Float64bits(w[0]) != 1<<63 || w[1] != 0 {
		t.Errorf("weights %v: want -0 kept and 1e-400 as 0", w)
	}
	if w := read(`{"n":3,"weights":[1,2,3,4],"weights":[9],"weights":[null,null,null]}`).Weights; fmt.Sprint(w) != "[9 2 3]" {
		t.Errorf("repeated weights %v, want [9 2 3]", w)
	}
	if e := read(`{"n":2,"weights":[1,1],"edges":[{"u":1,"v":0,"w":5}],"edges":[{"w":7}]}`).Edges(); fmt.Sprint(e) != "[{0 1 7}]" {
		t.Errorf("repeated edges %v, want [{0 1 7}]", e)
	}
	if name := read(`{"name":"𐀀\udc00","n":0,"weights":[]}`).Name; name != "\U00010000�" {
		t.Errorf("name %q", name)
	}
	in, err := ReadInstance(strings.NewReader(instance(`"tig":`+baseTIG, `"platform":`+basePlatform, `"ſeed":7`, `"SEED":null`)))
	if err != nil || in.Seed != 7 {
		t.Fatalf("seed %v, err %v: want 7", in, err)
	}
}

// TestReadInstanceReadError passes a read error through.
func TestReadInstanceReadError(t *testing.T) {
	boom := errors.New("boom")
	doc := instance(`"tig":`+baseTIG, `"platform":`+basePlatform)
	rd := io.MultiReader(strings.NewReader(doc[:30]), iotest.ErrReader(boom))
	if _, err := ReadInstance(rd); !errors.Is(err, boom) {
		t.Fatalf("error %v, want one wrapping %v", err, boom)
	}
}

// TestReadInstanceGenerated compares the reader with the reference on
// generated documents larger than the read buffer, with integer and
// full-precision float values and all three platform forms.
func TestReadInstanceGenerated(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 17, 120} {
		for _, integral := range []bool{true, false} {
			value := func() float64 {
				if integral {
					return float64(rng.IntRange(1, 100))
				}
				return rng.Float64() * math.Pow(10, float64(rng.IntRange(-30, 30)))
			}
			tig := NewTIG(n)
			for i := range tig.Weights {
				tig.Weights[i] = value()
			}
			for i := 0; i < 4*n; i++ {
				if u, v := rng.Intn(n), rng.Intn(n); u != v && !tig.HasEdge(u, v) {
					tig.MustAddEdge(u, v, value())
				}
			}
			costs, link := make([]float64, n), make([]float64, n*n)
			for s := range costs {
				costs[s] = value()
				for b := s + 1; b < n; b++ {
					link[s*n+b] = value()
					link[b*n+s] = link[s*n+b]
				}
			}
			dense, err := NewResourceGraphDense(costs, link)
			if err != nil {
				t.Fatal(err)
			}
			ring := NewResourceGraphWithCosts(costs)
			for s := 0; s+1 < n; s++ {
				ring.MustAddLink(s, s+1, value())
			}
			if n > 1 {
				if err := ring.CloseLinks(); err != nil {
					t.Fatal(err)
				}
			}
			k := rng.IntRange(1, n)
			labels, table := make([]int32, n), make([]float64, k*k)
			for s := range labels {
				labels[s] = int32(rng.Intn(k))
			}
			for a := 0; a < k; a++ {
				for b := a; b < k; b++ {
					table[a*k+b] = value()
					table[b*k+a] = table[a*k+b]
				}
			}
			blocks, err := NewResourceGraphBlocks(costs, labels, table)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*ResourceGraph{dense, ring, blocks} {
				var buf bytes.Buffer
				if err := WriteInstance(&buf, &Instance{TIG: tig, Platform: p, Seed: uint64(n)}); err != nil {
					t.Fatal(err)
				}
				want, err := checkReadInstance(t, buf.Bytes())
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if d := diffResource(want.Platform, p); d != "" {
					t.Fatalf("n=%d: round trip: %s", n, d)
				}
			}
		}
	}
}

// TestShortFloatMatchesStrconv checks the fast path bit for bit.
func TestShortFloatMatchesStrconv(t *testing.T) {
	rng := xrand.New(9)
	nums := []string{"0", "-0", "0.0", "-0.000", "1", "9007199254740993", "999999999999999", "0.1", "0.3",
		"123456.789012345", "1e5", "1E-5", "2.5e+3", "0.000000000000001", "100000000000000000000000", "01", "1.", "-"}
	for i := 0; i < 100000; i++ {
		digits := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		if p := rng.Intn(len(digits) + 1); p < len(digits) {
			digits = digits[:p] + "." + digits[p:]
			if p == 0 {
				digits = "0" + digits
			}
		}
		if rng.Intn(2) == 0 {
			digits = "-" + digits
		}
		nums = append(nums, digits)
	}
	fast := 0
	for _, s := range nums {
		r := docReader{buf: []byte(s + ",")}
		got, ok := r.shortFloat()
		if !ok {
			if r.pos != 0 {
				t.Fatalf("%s: declined but consumed %d bytes", s, r.pos)
			}
			continue
		}
		fast++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || !validNumber([]byte(s)) || r.pos != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v after %d bytes, strconv %v (%v)", s, got, r.pos, want, err)
		}
	}
	if fast < len(nums)/4 {
		t.Fatalf("fast path took only %d of %d numbers", fast, len(nums))
	}
}
