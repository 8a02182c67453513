package extension

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"starlinkview/internal/geo"
	"starlinkview/internal/ipinfo"
	"starlinkview/internal/tranco"
	"starlinkview/internal/weather"
	"starlinkview/internal/webperf"
)

var (
	studyStart = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	london     = geo.LatLon{LatDeg: 51.5074, LonDeg: -0.1278}
)

// staticAccess returns an AccessFunc with light time-of-day noise.
func staticAccess(rtt time.Duration, down float64, loss float64) AccessFunc {
	rng := rand.New(rand.NewSource(99))
	return func(at time.Time) webperf.Access {
		return webperf.Access{
			RTT:        rtt + time.Duration(rng.Intn(5))*time.Millisecond,
			JitterMean: rtt / 8,
			DownBps:    down,
			LossProb:   loss,
		}
	}
}

func newCollector(t *testing.T) *Collector {
	t.Helper()
	list, err := tranco.NewList(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(list, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func slUser(city, country string) *User {
	return &User{
		City: city, Country: country, ISP: "starlink", SharesData: true,
		Access: staticAccess(34*time.Millisecond, 150e6, 0.004),
		Opts:   webperf.Options{ClientLoc: london, CDNEdgeRTT: 4 * time.Millisecond},
	}
}

func cellUser(city, country string) *User {
	return &User{
		City: city, Country: country, ISP: "cellular", SharesData: true,
		Access: staticAccess(62*time.Millisecond, 45e6, 0.002),
		Opts:   webperf.Options{ClientLoc: london, CDNEdgeRTT: 4 * time.Millisecond},
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil, 1); err == nil {
		t.Error("want error for nil list")
	}
}

func TestEnrollValidation(t *testing.T) {
	c := newCollector(t)
	if err := c.Enroll(&User{}); err == nil {
		t.Error("want error for empty user")
	}
	if err := c.Enroll(&User{City: "London", ISP: "starlink"}); err == nil {
		t.Error("want error for missing access model")
	}
	u := slUser("London", "GB")
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if u.ID == "" || u.ip == "" {
		t.Error("enrolment did not assign ID and IP")
	}
	if u.DeviceFactor <= 0 || u.PagesPerDay <= 0 {
		t.Error("defaults not applied")
	}
}

func TestOptOutUsersProduceNoRecords(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	u.SharesData = false
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUser(u, studyStart, studyStart.Add(14*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(c.Records()) != 0 {
		t.Errorf("opt-out user produced %d records", len(c.Records()))
	}
}

func TestSimulateUserProducesRecords(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	u.PagesPerDay = 15
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUser(u, studyStart, studyStart.Add(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	// ~15 pages/day x 30 days plus benchmark bursts.
	if len(recs) < 250 || len(recs) > 1200 {
		t.Fatalf("record count = %d, want a plausible month of browsing", len(recs))
	}
	benchmarks := 0
	for _, r := range recs {
		if r.UserID != u.ID {
			t.Fatal("record with wrong user ID")
		}
		if r.City != "London" || r.ISP != "starlink" {
			t.Fatalf("mis-tagged record: %+v", r)
		}
		if r.PTTMs <= 0 || r.PLTMs <= r.PTTMs {
			t.Fatalf("invalid timings: %+v", r)
		}
		if r.ASN != ipinfo.ASGoogle && r.ASN != ipinfo.ASSpaceX {
			t.Fatalf("starlink record with ASN %d", r.ASN)
		}
		if r.Benchmark {
			benchmarks++
		}
	}
	if benchmarks == 0 {
		t.Error("no benchmark-set loads in a month")
	}
	if benchmarks%10 != 0 {
		t.Errorf("benchmark loads = %d, want a multiple of 10 (5/3/2 sets)", benchmarks)
	}
	// Chronological order.
	for i := 1; i < len(recs); i++ {
		if recs[i].At.Before(recs[i-1].At) {
			t.Fatal("records out of order")
		}
	}
}

func TestSimulateUserErrors(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	if err := c.SimulateUser(u, studyStart, studyStart.Add(time.Hour)); err == nil {
		t.Error("want error for un-enrolled user")
	}
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUser(u, studyStart, studyStart); err == nil {
		t.Error("want error for empty window")
	}
}

func TestASMigrationVisibleInRecords(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	// Span the London migration window (16-24 Feb 2022).
	if err := c.SimulateUser(u, time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	google, spacex := 0, 0
	for _, r := range c.Records() {
		switch r.ASN {
		case ipinfo.ASGoogle:
			google++
		case ipinfo.ASSpaceX:
			spacex++
		}
	}
	if google == 0 || spacex == 0 {
		t.Errorf("migration not visible: google=%d spacex=%d", google, spacex)
	}
}

func TestCityTableStarlinkFaster(t *testing.T) {
	c := newCollector(t)
	sl := slUser("London", "GB")
	cell := cellUser("London", "GB")
	for _, u := range []*User{sl, cell} {
		u.PagesPerDay = 20
		if err := c.Enroll(u); err != nil {
			t.Fatal(err)
		}
		if err := c.SimulateUser(u, studyStart, studyStart.Add(45*24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	rows := c.CityTable([]string{"London"})
	if len(rows) != 1 {
		t.Fatal("expected one row")
	}
	row := rows[0]
	if row.StarlinkReqs == 0 || row.NonSLReqs == 0 {
		t.Fatalf("empty table row: %+v", row)
	}
	if row.StarlinkDomains == 0 || row.NonSLDomains == 0 {
		t.Fatalf("no domains: %+v", row)
	}
	if row.StarlinkDomains > row.StarlinkReqs {
		t.Error("more domains than requests")
	}
	// Table 1's headline: Starlink's median PTT below non-Starlink's.
	if row.StarlinkMedianPTT >= row.NonSLMedianPTT {
		t.Errorf("Starlink median %v >= non-Starlink %v", row.StarlinkMedianPTT, row.NonSLMedianPTT)
	}
}

func TestWeatherTagging(t *testing.T) {
	c := newCollector(t)
	gen, err := weather.NewGenerator(weather.London(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.WeatherAt = func(city string, at time.Time) (weather.Condition, bool) {
		if city != "London" {
			return 0, false
		}
		return gen.At(at.Sub(studyStart)), true
	}
	u := slUser("London", "GB")
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUser(u, studyStart, studyStart.Add(20*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, r := range c.Records() {
		if r.HasWx {
			tagged++
		}
	}
	if tagged != len(c.Records()) {
		t.Errorf("only %d/%d records weather-tagged", tagged, len(c.Records()))
	}
}

func TestUserCountAndCities(t *testing.T) {
	c := newCollector(t)
	users := []*User{slUser("London", "GB"), slUser("Seattle", "US"), cellUser("London", "GB")}
	for _, u := range users {
		u.PagesPerDay = 10
		if err := c.Enroll(u); err != nil {
			t.Fatal(err)
		}
		if err := c.SimulateUser(u, studyStart, studyStart.Add(10*24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	sl, nsl := c.UserCount()
	if sl != 2 || nsl != 1 {
		t.Errorf("user counts = %d/%d, want 2/1", sl, nsl)
	}
	cities := c.Cities()
	if len(cities) != 2 || cities[0] != "London" || cities[1] != "Seattle" {
		t.Errorf("cities = %v", cities)
	}
}

func TestPTTSamplesFilter(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	u.PagesPerDay = 12
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUser(u, studyStart, studyStart.Add(20*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	all := c.PTTSamples(func(Record) bool { return true })
	popular := c.PTTSamples(func(r Record) bool { return r.Popular })
	if len(all) != len(c.Records()) {
		t.Error("unfiltered sample count mismatch")
	}
	if len(popular) == 0 || len(popular) >= len(all) {
		t.Errorf("popular filter returned %d of %d", len(popular), len(all))
	}
}

// TestSimulateUsersMatchesSerial pins the parallel driver's contract: for
// the same collector seed, SimulateUsers across many workers produces a
// byte-identical dataset — and an identical OnRecord stream — to the serial
// per-user loop.
func TestSimulateUsersMatchesSerial(t *testing.T) {
	build := func() (*Collector, []*User) {
		c := newCollector(t)
		users := []*User{
			slUser("London", "GB"), cellUser("London", "GB"),
			slUser("Seattle", "US"), cellUser("Seattle", "US"),
			slUser("Sydney", "AU"), cellUser("Berlin", "DE"),
			slUser("Auckland", "NZ"),
		}
		for _, u := range users {
			if err := c.Enroll(u); err != nil {
				t.Fatal(err)
			}
		}
		return c, users
	}
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(21 * 24 * time.Hour)

	serial, serialUsers := build()
	var serialSeen []string
	serial.OnRecord = func(r Record) { serialSeen = append(serialSeen, r.UserID+r.Domain+r.At.String()) }
	for _, u := range serialUsers {
		if err := serial.SimulateUser(u, start, end); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{2, 4, 16} {
		par, parUsers := build()
		var parSeen []string
		par.OnRecord = func(r Record) { parSeen = append(parSeen, r.UserID+r.Domain+r.At.String()) }
		if err := par.SimulateUsers(parUsers, start, end, workers); err != nil {
			t.Fatal(err)
		}
		if len(par.Records()) != len(serial.Records()) {
			t.Fatalf("workers=%d: %d records, serial produced %d", workers, len(par.Records()), len(serial.Records()))
		}
		for i, r := range par.Records() {
			if r != serial.Records()[i] {
				t.Fatalf("workers=%d: record %d differs:\nparallel %+v\nserial   %+v", workers, i, r, serial.Records()[i])
			}
		}
		if !reflect.DeepEqual(parSeen, serialSeen) {
			t.Fatalf("workers=%d: OnRecord stream diverged (%d vs %d events)", workers, len(parSeen), len(serialSeen))
		}
	}
}

// TestSimulateUsersValidation covers the parallel driver's error paths.
func TestSimulateUsersValidation(t *testing.T) {
	c := newCollector(t)
	u := slUser("London", "GB")
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := c.SimulateUsers([]*User{u}, start, start.Add(time.Hour), 4); err == nil {
		t.Fatal("expected error for unenrolled user")
	}
	if err := c.Enroll(u); err != nil {
		t.Fatal(err)
	}
	other := slUser("Seattle", "US")
	if err := c.Enroll(other); err != nil {
		t.Fatal(err)
	}
	if err := c.SimulateUsers([]*User{u, other}, start, start, 4); err == nil {
		t.Fatal("expected error for empty window")
	}
}

// constSource is a rand.Source that always draws the same value.
type constSource int64

func (s constSource) Int63() int64 { return int64(s) }
func (constSource) Seed(int64)     {}

// TestEqualAtKeepsCommitOrder: records with equal At stay in the order they
// were committed, whichever path runs the users. Two users differ only in
// their ID; their IDs share the byte the per-user seed reads and the
// collector's generator is replaced by a constant one, so both draw the same
// stream and every record of the first user ties with one of the second's.
func TestEqualAtKeepsCommitOrder(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(7 * 24 * time.Hour)
	build := func() (*Collector, []*User) {
		c := newCollector(t)
		a, b := slUser("London", "GB"), slUser("London", "GB")
		for _, u := range []*User{a, b} {
			if err := c.Enroll(u); err != nil {
				t.Fatal(err)
			}
		}
		b.favourites, b.DeviceFactor, b.PagesPerDay = a.favourites, a.DeviceFactor, a.PagesPerDay
		a.ID, b.ID = "anon-0000000a", "anon-0000000b"
		c.rng = rand.New(constSource(42))
		return c, []*User{a, b}
	}
	check := func(path string, c *Collector, users []*User) {
		t.Helper()
		recs := c.Records()
		if len(recs) < 40 || len(recs)%2 != 0 {
			t.Fatalf("%s: %d records, want an even number of at least 40", path, len(recs))
		}
		for i := 0; i < len(recs); i += 2 {
			first, second := recs[i], recs[i+1]
			if first.UserID != users[0].ID || second.UserID != users[1].ID {
				t.Fatalf("%s: records %d and %d are from %s and %s, want %s then %s",
					path, i, i+1, first.UserID, second.UserID, users[0].ID, users[1].ID)
			}
			second.UserID = first.UserID
			if first != second {
				t.Fatalf("%s: records %d and %d differ beyond their user:\n%+v\n%+v", path, i, i+1, first, second)
			}
			if i > 0 && recs[i-1].At.After(first.At) {
				t.Fatalf("%s: record %d is before record %d", path, i, i-1)
			}
		}
	}

	c, users := build()
	for _, u := range users {
		if err := c.SimulateUser(u, start, end); err != nil {
			t.Fatal(err)
		}
	}
	check("SimulateUser", c, users)
	for _, workers := range []int{1, 2} {
		c, users := build()
		if err := c.SimulateUsers(users, start, end, workers); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("SimulateUsers workers=%d", workers), c, users)
	}
}
