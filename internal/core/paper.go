package core

import "fmt"

// paperRow is one number the paper publishes. Subject is the city,
// algorithm or condition the number is about; section is where the paper
// presents it: §3 describes the datasets (Figure 1, Table 1), §4 the
// findings.
type paperRow struct {
	exhibit, subject, quantity string
	value                      float64
	unit, section              string
}

// paperTable holds every published value the reports, tests and examples
// quote. Figure 6a gives London's median only as "between" Barcelona and
// North Carolina, so London has no row there.
var paperTable = []paperRow{
	{"Figure 1", "Starlink", "users", 18, "users", "§3"},
	{"Figure 1", "non-Starlink", "users", 10, "users", "§3"},
	{"Figure 1", "all", "cities", 10, "cities", "§3"},

	{"Table 1", "London", "Starlink requests", 12933, "requests", "§3"},
	{"Table 1", "London", "Starlink domains", 1302, "domains", "§3"},
	{"Table 1", "London", "Starlink median PTT", 327, "ms", "§3"},
	{"Table 1", "London", "non-Starlink requests", 4006, "requests", "§3"},
	{"Table 1", "London", "non-Starlink domains", 730, "domains", "§3"},
	{"Table 1", "London", "non-Starlink median PTT", 443, "ms", "§3"},
	{"Table 1", "Seattle", "Starlink requests", 3597, "requests", "§3"},
	{"Table 1", "Seattle", "Starlink domains", 579, "domains", "§3"},
	{"Table 1", "Seattle", "Starlink median PTT", 395, "ms", "§3"},
	{"Table 1", "Seattle", "non-Starlink requests", 765, "requests", "§3"},
	{"Table 1", "Seattle", "non-Starlink domains", 222, "domains", "§3"},
	{"Table 1", "Seattle", "non-Starlink median PTT", 566, "ms", "§3"},
	{"Table 1", "Sydney", "Starlink requests", 3482, "requests", "§3"},
	{"Table 1", "Sydney", "Starlink domains", 390, "domains", "§3"},
	{"Table 1", "Sydney", "Starlink median PTT", 622, "ms", "§3"},
	{"Table 1", "Sydney", "non-Starlink requests", 843, "requests", "§3"},
	{"Table 1", "Sydney", "non-Starlink domains", 260, "domains", "§3"},
	{"Table 1", "Sydney", "non-Starlink median PTT", 675, "ms", "§3"},

	// Google services from London Starlink users, by weather condition.
	{"Figure 4", "Clear Sky", "median PTT", 470.5, "ms", "§4"},
	{"Figure 4", "Moderate Rain", "median PTT", 931.5, "ms", "§4"},

	// Max-min queueing delay over the bent pipe ("wireless") and the whole
	// path.
	{"Table 2", "NorthCarolina", "wireless min", 33.4, "ms", "§4"},
	{"Table 2", "NorthCarolina", "wireless median", 48.3, "ms", "§4"},
	{"Table 2", "NorthCarolina", "wireless max", 78.5, "ms", "§4"},
	{"Table 2", "NorthCarolina", "whole min", 39.2, "ms", "§4"},
	{"Table 2", "NorthCarolina", "whole median", 72.4, "ms", "§4"},
	{"Table 2", "NorthCarolina", "whole max", 98.7, "ms", "§4"},
	{"Table 2", "London", "wireless min", 14.3, "ms", "§4"},
	{"Table 2", "London", "wireless median", 24.3, "ms", "§4"},
	{"Table 2", "London", "wireless max", 53.9, "ms", "§4"},
	{"Table 2", "London", "whole min", 19.6, "ms", "§4"},
	{"Table 2", "London", "whole median", 33.5, "ms", "§4"},
	{"Table 2", "London", "whole max", 87.2, "ms", "§4"},
	{"Table 2", "Barcelona", "wireless min", 8.1, "ms", "§4"},
	{"Table 2", "Barcelona", "wireless median", 16.5, "ms", "§4"},
	{"Table 2", "Barcelona", "wireless max", 20, "ms", "§4"},
	{"Table 2", "Barcelona", "whole min", 11.2, "ms", "§4"},
	{"Table 2", "Barcelona", "whole median", 18.2, "ms", "§4"},
	{"Table 2", "Barcelona", "whole max", 23.1, "ms", "§4"},

	// Browser speedtests against the Iowa server.
	{"Table 3", "London", "median download", 123.2, "Mbps", "§4"},
	{"Table 3", "London", "median upload", 11.3, "Mbps", "§4"},
	{"Table 3", "Seattle", "median download", 90.3, "Mbps", "§4"},
	{"Table 3", "Seattle", "median upload", 6.6, "Mbps", "§4"},
	{"Table 3", "Toronto", "median download", 65.8, "Mbps", "§4"},
	{"Table 3", "Toronto", "median upload", 6.9, "Mbps", "§4"},
	{"Table 3", "Warsaw", "median download", 44.9, "Mbps", "§4"},
	{"Table 3", "Warsaw", "median upload", 7.7, "Mbps", "§4"},

	{"Figure 6a", "Barcelona", "median download", 147, "Mbps", "§4"},
	{"Figure 6a", "NorthCarolina", "median download", 34.3, "Mbps", "§4"},

	// A lower bound: the night maximum exceeds twice the evening minimum.
	{"Figure 6b", "UK", "diurnal download swing", 2, "ratio", "§4"},

	{"Figure 6c", "London", "P(loss>=5%)", 0.12, "fraction of runs", "§4"},
	{"Figure 6c", "London", "P(loss>=10%)", 0.06, "fraction of runs", "§4"},
	{"Figure 6c", "London", "max loss", 50, "%", "§4"},

	// Goodput over UDP burst capacity. The WiFi rows are lower bounds.
	{"Figure 8", "bbr", "Starlink normalised throughput", 0.55, "fraction of UDP capacity", "§4"},
	{"Figure 8", "bbr", "WiFi normalised throughput", 0.9, "fraction of UDP capacity", "§4"},
	{"Figure 8", "all", "WiFi normalised throughput", 0.75, "fraction of UDP capacity", "§4"},
}

// Paper returns the published value of one quantity. It panics on a key the
// table does not hold: every caller quotes a number the paper prints.
func Paper(exhibit, subject, quantity string) float64 {
	for _, r := range paperTable {
		if r.exhibit == exhibit && r.subject == subject && r.quantity == quantity {
			return r.value
		}
	}
	panic(fmt.Sprintf("core: no paper value for %s / %s / %s", exhibit, subject, quantity))
}
