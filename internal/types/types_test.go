package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(3.5), "3.50"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null, "NULL"},
		{Date(MustDate("1994-01-01")), "1994-01-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	if Compare(Int(1), Int(2)) != -1 || Compare(Int(2), Int(2)) != 0 || Compare(Int(3), Int(2)) != 1 {
		t.Fatal("int compare")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Fatal("mixed numeric compare")
	}
	if Compare(Str("a"), Str("b")) != -1 {
		t.Fatal("string compare")
	}
	if Equal(Null, Null) {
		t.Fatal("NULL must not equal NULL")
	}
	if !Equal(Date(10), Date(10)) {
		t.Fatal("date equality")
	}
	// Integers compare by payload and against floats exactly, where a
	// float64 holds neither 2^53+1 nor MaxInt64.
	const big = 1 << 53
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Int(big), Int(big + 1), -1},
		{Date(big + 1), Int(big), 1},
		{Int(big + 1), Float(big), 1},
		{Float(big), Int(big + 1), -1},
		{Int(big), Float(big), 0},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-1 << 63), 0},
		{Int(-3), Float(-2.5), -1},
		{Int(2), Float(2.5), -1},
		{Int(3), Float(math.NaN()), 0},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compare(Str("a"), Int(1))
}

func TestDateRoundTrip(t *testing.T) {
	f := func(off int32) bool {
		days := int64(off % 100000) // within a few centuries of epoch
		y, m, d := CivilFromDays(days)
		return DaysFromCivil(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKnownDates(t *testing.T) {
	if MustDate("1970-01-01") != 0 {
		t.Fatal("epoch")
	}
	if MustDate("1970-01-02") != 1 {
		t.Fatal("epoch+1")
	}
	if MustDate("1992-01-01") != 8035 {
		t.Fatalf("1992-01-01 = %d", MustDate("1992-01-01"))
	}
	if FormatDate(MustDate("1998-12-01")) != "1998-12-01" {
		t.Fatal("format")
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, s := range []string{"1994", "1994-13-01", "1994-00-10", "a-b-c", "1994-01-40",
		"1995-02-30", "1995-02-29", "1900-02-29", "1994-04-31", "1994-11-31"} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) should fail", s)
		}
	}
}

// TestParseDateRoundTrip: every day from 1899 to 2001 parses back from
// its formatted form, so no month end, leap day included, is rejected.
func TestParseDateRoundTrip(t *testing.T) {
	for d := MustDate("1899-01-01"); d < MustDate("2002-01-01"); d++ {
		if got, err := ParseDate(FormatDate(d)); err != nil || got != d {
			t.Fatalf("ParseDate(%s) = %d, %v; want %d", FormatDate(d), got, err, d)
		}
	}
}

func TestAddMonths(t *testing.T) {
	d := MustDate("1994-01-31")
	if FormatDate(AddMonths(d, 1)) != "1994-02-28" {
		t.Fatalf("got %s", FormatDate(AddMonths(d, 1)))
	}
	if FormatDate(AddMonths(d, 3)) != "1994-04-30" {
		t.Fatalf("got %s", FormatDate(AddMonths(d, 3)))
	}
	if FormatDate(AddMonths(MustDate("1994-03-15"), -3)) != "1993-12-15" {
		t.Fatal("negative months")
	}
	if FormatDate(AddYears(MustDate("1996-02-29"), 1)) != "1997-02-28" {
		t.Fatal("leap year clamp")
	}
}

func TestYear(t *testing.T) {
	if Year(MustDate("1995-06-17")) != 1995 {
		t.Fatal("year extract")
	}
}

func TestWidth(t *testing.T) {
	if Str("abcd").Width() != 5 || Int(1).Width() != 8 || Null.Width() != 1 {
		t.Fatal("width accounting")
	}
}

func TestKeyExactness(t *testing.T) {
	a, b := Float(0.30000000000000004), Float(0.3)
	if a.Key() == b.Key() {
		t.Fatal("Key must distinguish close floats")
	}
	if Int(5).Key() != "5" {
		t.Fatal("int key")
	}
}
