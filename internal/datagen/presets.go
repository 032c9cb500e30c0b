package datagen

import "github.com/spatiotext/latest/internal/geo"

// conus is a continental-US-like lon/lat bounding box used by the Twitter
// and eBird simulations (the paper's streams are US-centric).
var conus = geo.Rect{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}

// Twitter simulates the paper's 75M-geotagged-tweet stream: many urban
// hotspots over CONUS, a large Zipf hashtag vocabulary, 1-3 keywords per
// tweet, and slow hotspot drift (trending-topic movement). rate is objects
// per virtual ms; the paper's stream averages ~2 tweets/ms.
func Twitter(seed int64, rate float64) *Generator {
	return New(Config{
		Name:  "Twitter",
		World: conus,
		Hotspots: []Hotspot{
			{Center: geo.Pt(-74.0, 40.7), Sigma: 0.8, Weight: 14},  // NYC
			{Center: geo.Pt(-118.2, 34.1), Sigma: 0.9, Weight: 12}, // LA
			{Center: geo.Pt(-87.6, 41.9), Sigma: 0.7, Weight: 8},   // Chicago
			{Center: geo.Pt(-95.4, 29.8), Sigma: 0.8, Weight: 7},   // Houston
			{Center: geo.Pt(-112.1, 33.4), Sigma: 0.7, Weight: 4},  // Phoenix
			{Center: geo.Pt(-75.2, 39.9), Sigma: 0.6, Weight: 4},   // Philly
			{Center: geo.Pt(-122.4, 37.8), Sigma: 0.5, Weight: 6},  // SF
			{Center: geo.Pt(-84.4, 33.7), Sigma: 0.7, Weight: 5},   // Atlanta
			{Center: geo.Pt(-80.2, 25.8), Sigma: 0.5, Weight: 5},   // Miami
			{Center: geo.Pt(-104.9, 39.7), Sigma: 0.6, Weight: 3},  // Denver
			{Center: geo.Pt(-122.3, 47.6), Sigma: 0.5, Weight: 4},  // Seattle
			{Center: geo.Pt(-97.7, 30.3), Sigma: 0.6, Weight: 3},   // Austin
		},
		UniformFrac:   0.2,
		VocabSize:     5000,
		ZipfS:         1.1,
		KwMin:         1,
		KwMax:         3,
		RatePerMS:     rate,
		DriftPeriodMS: 120_000,
		Seed:          seed,
	})
}

// EBird simulates the 41M-record eBird stream: observation clusters along
// migration-corridor bands, a small categorical vocabulary (protocol and
// breeding codes), 1-2 keywords per record, lower keyword entropy than
// Twitter — the spatially dominated dataset of the paper.
func EBird(seed int64, rate float64) *Generator {
	// A diagonal band of clusters (Atlantic flyway flavour) plus interior
	// refuges.
	return New(Config{
		Name:  "eBird",
		World: conus,
		Hotspots: []Hotspot{
			{Center: geo.Pt(-70.5, 43.5), Sigma: 1.4, Weight: 6},
			{Center: geo.Pt(-75.0, 40.0), Sigma: 1.3, Weight: 8},
			{Center: geo.Pt(-79.0, 36.0), Sigma: 1.5, Weight: 7},
			{Center: geo.Pt(-82.0, 31.0), Sigma: 1.4, Weight: 6},
			{Center: geo.Pt(-81.5, 27.0), Sigma: 1.1, Weight: 7},
			{Center: geo.Pt(-90.1, 35.1), Sigma: 1.6, Weight: 5}, // Mississippi flyway
			{Center: geo.Pt(-93.3, 44.9), Sigma: 1.4, Weight: 4},
			{Center: geo.Pt(-106.5, 35.1), Sigma: 1.7, Weight: 3}, // Rio Grande
			{Center: geo.Pt(-121.5, 38.6), Sigma: 1.2, Weight: 5}, // Central Valley
		},
		UniformFrac: 0.1,
		VocabSize:   60, // protocol type, breeding category, species codes
		ZipfS:       1.3,
		KwMin:       1,
		KwMax:       2,
		RatePerMS:   rate,
		Seed:        seed,
	})
}

// CheckIn simulates the 973K Foursquare check-in stream: tight urban POI
// cores, a mid-sized tag vocabulary, the smallest volume of the three.
func CheckIn(seed int64, rate float64) *Generator {
	return New(Config{
		Name:  "CheckIn",
		World: conus,
		Hotspots: []Hotspot{
			{Center: geo.Pt(-74.0, 40.7), Sigma: 0.25, Weight: 12}, // NYC
			{Center: geo.Pt(-118.2, 34.1), Sigma: 0.3, Weight: 8},  // LA
			{Center: geo.Pt(-87.6, 41.9), Sigma: 0.25, Weight: 6},  // Chicago
			{Center: geo.Pt(-122.4, 37.8), Sigma: 0.2, Weight: 6},  // SF
			{Center: geo.Pt(-80.2, 25.8), Sigma: 0.2, Weight: 4},   // Miami
			{Center: geo.Pt(-97.7, 30.3), Sigma: 0.2, Weight: 3},   // Austin
		},
		UniformFrac: 0.08,
		VocabSize:   800,
		ZipfS:       1.15,
		KwMin:       1,
		KwMax:       3,
		RatePerMS:   rate,
		Seed:        seed,
	})
}

// Names lists the labels ByName accepts.
func Names() []string { return []string{"Twitter", "eBird", "CheckIn"} }

// ByName builds one of the three preset datasets by figure label. It
// panics on unknown names, which indicates a harness typo.
func ByName(name string, seed int64, rate float64) *Generator {
	switch name {
	case "Twitter":
		return Twitter(seed, rate)
	case "eBird":
		return EBird(seed, rate)
	case "CheckIn":
		return CheckIn(seed, rate)
	default:
		panic("datagen: unknown dataset " + name)
	}
}
