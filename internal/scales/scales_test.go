package scales

import (
	"reflect"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"4,8,16,32", []int{4, 8, 16, 32}},
		{" 4 , 8 ", []int{4, 8}},
		{"1", []int{1}},
		{"32,4,16", []int{32, 4, 16}}, // user order preserved, never sorted
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"",        // empty list
		"  ",      // blank list
		"4,,8",    // empty entry
		"4,x",     // non-integer
		"4,8,4",   // duplicate
		"0,4",     // below 1
		"-2",      // negative
		"4.5",     // non-integer
		"4,8,8,8", // repeated duplicate
	} {
		if got, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, got)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]int{4, 8, 16}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := Validate([]int{4, 4}); err == nil {
		t.Fatal("Validate accepted a duplicate")
	}
	if err := Validate([]int{0}); err == nil {
		t.Fatal("Validate accepted zero")
	}
	if err := Validate(nil); err != nil {
		t.Fatalf("Validate(nil): %v", err)
	}
	nps := make([]int, MaxScales+1)
	for i := range nps {
		nps[i] = i + 1
	}
	if err := Validate(nps[:MaxScales]); err != nil {
		t.Fatalf("Validate rejected %d scales: %v", MaxScales, err)
	}
	if err := Validate(nps); err == nil {
		t.Fatalf("Validate accepted %d scales", len(nps))
	}
}

func TestSplitMin(t *testing.T) {
	kept, dropped := SplitMin([]int{1, 2, 4, 8}, 4)
	if !reflect.DeepEqual(kept, []int{4, 8}) || !reflect.DeepEqual(dropped, []int{1, 2}) {
		t.Fatalf("SplitMin = %v / %v", kept, dropped)
	}
	kept, dropped = SplitMin([]int{1, 2}, 4)
	if len(kept) != 0 || len(dropped) != 2 {
		t.Fatalf("SplitMin all-dropped = %v / %v", kept, dropped)
	}
	kept, dropped = SplitMin([]int{8, 4}, 2)
	if !reflect.DeepEqual(kept, []int{8, 4}) || dropped != nil {
		t.Fatalf("SplitMin none-dropped = %v / %v", kept, dropped)
	}
}
