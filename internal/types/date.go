package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Civil date <-> epoch-day conversion using Howard Hinnant's algorithms;
// exact over the proleptic Gregorian calendar, no time zones involved.

// DaysFromCivil converts year/month/day to days since 1970-01-01.
func DaysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mm int64
	if m > 2 {
		mm = int64(m) - 3
	} else {
		mm = int64(m) + 9
	}
	doy := (153*mm+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// CivilFromDays converts days since 1970-01-01 to year/month/day.
func CivilFromDays(z int64) (y, m, d int) {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// ParseDate parses "YYYY-MM-DD" into days since the epoch. A day past the
// month's length (1995-02-30, or 02-29 outside a leap year) is an error,
// as in PostgreSQL, not a date in the next month.
func ParseDate(s string) (int64, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, fmt.Errorf("types: invalid date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > daysInMonth(y, m) {
		return 0, fmt.Errorf("types: invalid date %q", s)
	}
	return DaysFromCivil(y, m, d), nil
}

// MustDate is ParseDate for literals known to be valid; it panics on error.
func MustDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days since the epoch as "YYYY-MM-DD".
func FormatDate(days int64) string {
	y, m, d := CivilFromDays(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// AddMonths shifts a date by n calendar months, clamping the day to the
// target month length (SQL interval semantics).
func AddMonths(days int64, n int) int64 {
	y, m, d := CivilFromDays(days)
	total := y*12 + (m - 1) + n
	ny, nm := total/12, total%12
	if nm < 0 {
		nm += 12
		ny--
	}
	nm++ // back to 1-based
	if last := daysInMonth(ny, nm); d > last {
		d = last
	}
	return DaysFromCivil(ny, nm, d)
}

// AddYears shifts a date by n calendar years.
func AddYears(days int64, n int) int64 { return AddMonths(days, 12*n) }

// Year extracts the calendar year of an epoch-day date.
func Year(days int64) int {
	y, _, _ := CivilFromDays(days)
	return y
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
			return 29
		}
		return 28
	}
}
