package convert

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestParseInt64(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  error
	}{
		{"0", 0, nil},
		{"1941", 1941, nil},
		{"-7", -7, nil},
		{"+42", 42, nil},
		{"9223372036854775807", math.MaxInt64, nil},
		{"-9223372036854775808", math.MinInt64, nil},
		{"9223372036854775808", 0, ErrOverflow},
		{"-9223372036854775809", 0, ErrOverflow},
		{"", 0, ErrEmpty},
		{"-", 0, ErrSyntax},
		{"12a", 0, ErrSyntax},
		{"1.5", 0, ErrSyntax},
		{" 1", 0, ErrSyntax},
	}
	for _, c := range cases {
		for _, p := range []struct {
			name string
			fn   func([]byte) (int64, error)
		}{{"ParseInt64", ParseInt64}, {"ParseInt64Scalar", ParseInt64Scalar}} {
			got, err := p.fn([]byte(c.in))
			if err != c.err {
				t.Errorf("%s(%q) err = %v, want %v", p.name, c.in, err, c.err)
				continue
			}
			if err == nil && got != c.want {
				t.Errorf("%s(%q) = %d, want %d", p.name, c.in, got, c.want)
			}
		}
	}
}

func TestParseInt64QuickAgainstStrconv(t *testing.T) {
	f := func(v int64) bool {
		got, err := ParseInt64([]byte(strconv.FormatInt(v, 10)))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFloat64(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"199.99", 199.99},
		{"-19.5", -19.5},
		{"1e3", 1000},
		{"-1.5e-2", -0.015},
		{"+2.5E4", 25000},
		{".5", 0.5},
		{"5.", 5},
		{"12345678901234", 12345678901234},
	}
	for _, p := range []struct {
		name string
		fn   func([]byte) (float64, error)
	}{{"ParseFloat64", ParseFloat64}, {"ParseFloat64Scalar", ParseFloat64Scalar}} {
		for _, c := range cases {
			got, err := p.fn([]byte(c.in))
			if err != nil {
				t.Errorf("%s(%q) err = %v", p.name, c.in, err)
				continue
			}
			if math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
				t.Errorf("%s(%q) = %g, want %g", p.name, c.in, got, c.want)
			}
		}
		for _, bad := range []string{"", ".", "-", "1e", "1e+", "abc", "1.2.3", "--1", "1 "} {
			if _, err := p.fn([]byte(bad)); err == nil {
				t.Errorf("%s(%q): want error", p.name, bad)
			}
		}
	}
}

func TestParseFloat64QuickAgainstStrconv(t *testing.T) {
	f := func(mantissa int32, exp int8) bool {
		s := strconv.FormatFloat(float64(mantissa)*math.Pow(10, float64(exp%30)), 'f', -1, 64)
		want, _ := strconv.ParseFloat(s, 64)
		got, err := ParseFloat64([]byte(s))
		if err != nil {
			return false
		}
		if want == 0 {
			return got == 0
		}
		return math.Abs(got-want) <= math.Abs(want)*1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseBool(t *testing.T) {
	trues := []string{"1", "t", "T", "true", "True", "TRUE"}
	falses := []string{"0", "f", "F", "false", "False", "FALSE"}
	for _, s := range trues {
		if v, err := ParseBool([]byte(s)); err != nil || !v {
			t.Errorf("ParseBool(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range falses {
		if v, err := ParseBool([]byte(s)); err != nil || v {
			t.Errorf("ParseBool(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range []string{"", "yes", "2", "truee", "fals"} {
		if _, err := ParseBool([]byte(s)); err == nil {
			t.Errorf("ParseBool(%q): want error", s)
		}
	}
}

func TestParseDate32AgainstTime(t *testing.T) {
	dates := []string{
		"1970-01-01", "1970-01-02", "1969-12-31", "2000-02-29",
		"2018-06-15", "1900-01-01", "2100-12-31", "0001-01-01",
	}
	for _, s := range dates {
		want, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		wantDays := want.Unix() / 86400
		if want.Unix() < 0 && want.Unix()%86400 != 0 {
			wantDays--
		}
		for _, p := range []struct {
			name string
			fn   func([]byte) (int64, error)
		}{{"ParseDate32", ParseDate32}, {"ParseDate32Scalar", ParseDate32Scalar}} {
			got, perr := p.fn([]byte(s))
			if perr != nil {
				t.Errorf("%s(%q): %v", p.name, s, perr)
				continue
			}
			if got != wantDays {
				t.Errorf("%s(%q) = %d, want %d", p.name, s, got, wantDays)
			}
		}
	}
	for _, bad := range []string{"", "2018-6-15", "2018/06/15", "2018-13-01", "2018-02-30", "201a-01-01", "2018-01-001"} {
		if _, err := ParseDate32([]byte(bad)); err == nil {
			t.Errorf("ParseDate32(%q): want error", bad)
		}
		if _, err := ParseDate32Scalar([]byte(bad)); err == nil {
			t.Errorf("ParseDate32Scalar(%q): want error", bad)
		}
	}
}

func TestParseTimestampMicrosAgainstTime(t *testing.T) {
	cases := []string{
		"2018-06-15 13:45:09",
		"2018-06-15T13:45:09",
		"1970-01-01 00:00:00",
		"1969-12-31 23:59:59",
		"2018-06-15 13:45:09.5",
		"2018-06-15 13:45:09.123456",
	}
	for _, s := range cases {
		layout := "2006-01-02 15:04:05"
		norm := s
		if s[10] == 'T' {
			norm = s[:10] + " " + s[11:]
		}
		if len(norm) > 19 {
			layout = "2006-01-02 15:04:05.999999"
		}
		want, err := time.Parse(layout, norm)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name string
			fn   func([]byte) (int64, error)
		}{{"ParseTimestampMicros", ParseTimestampMicros}, {"ParseTimestampMicrosScalar", ParseTimestampMicrosScalar}} {
			got, perr := p.fn([]byte(s))
			if perr != nil {
				t.Errorf("%s(%q): %v", p.name, s, perr)
				continue
			}
			if got != want.UnixMicro() {
				t.Errorf("%s(%q) = %d, want %d", p.name, s, got, want.UnixMicro())
			}
		}
	}
	for _, bad := range []string{"", "2018-06-15", "2018-06-15 25:00:00", "2018-06-15 13:45", "2018-06-15 13:45:09.", "2018-06-15 13:45:09.1234567"} {
		if _, err := ParseTimestampMicros([]byte(bad)); err == nil {
			t.Errorf("ParseTimestampMicros(%q): want error", bad)
		}
		if _, err := ParseTimestampMicrosScalar([]byte(bad)); err == nil {
			t.Errorf("ParseTimestampMicrosScalar(%q): want error", bad)
		}
	}
}

func TestFormatError(t *testing.T) {
	err := FormatError(3, 42, []byte("abcdefghijklmnopqrstuvwxyz0123456789"), ErrSyntax)
	if err == nil {
		t.Fatal("nil error")
	}
	msg := err.Error()
	if len(msg) == 0 {
		t.Error("empty message")
	}
}

// TestParseFloat64CorrectlyRounded pins the round-trip contract: both
// float parsers return strconv.ParseFloat's correctly rounded value, bit
// for bit, so a value written with strconv.FormatFloat re-parses to
// itself. The first case is a long integer mantissa whose scaled
// accumulation used to land one ULP off.
func TestParseFloat64CorrectlyRounded(t *testing.T) {
	cases := []string{
		"10170011111701017000000000000000000000000",
		"1.0170011111701017e+40", "9007199254740993", "123456789012345678",
		"1e23", "8.41e21", "1e-23", "2.2250738585072011e-308", "4.9e-324",
		"1.7976931348623157e308", "1e400", "-1e400", "1e-400", "0.1e22", "1234.5e-27",
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		cases = append(cases, strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'f', -1, 64))
	}
	for _, s := range cases {
		want, _ := strconv.ParseFloat(s, 64)
		for _, p := range []struct {
			name string
			fn   func([]byte) (float64, error)
		}{{"ParseFloat64", ParseFloat64}, {"ParseFloat64Scalar", ParseFloat64Scalar}} {
			got, err := p.fn([]byte(s))
			if err != nil {
				t.Fatalf("%s(%q): %v", p.name, s, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%q) = %v, strconv %v", p.name, s, got, want)
			}
		}
	}
}
