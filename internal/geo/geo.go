// Package geo provides the geographic substrate for the measurement study:
// great-circle geometry over WGS-84 coordinates, the three-granularity
// location taxonomy from the paper (county / state / national), the concrete
// 66-location dataset (22 US state centroids, 22 Ohio county centroids, and
// 15 Cuyahoga County voting-district points), and the synthetic demographic
// features used by the demographics-correlation analysis.
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0088

// KmPerMile converts statute miles to kilometres.
const KmPerMile = 1.609344

// Point is a WGS-84 coordinate pair in decimal degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Valid reports whether the point lies within the legal coordinate ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String renders the point as "lat,lon" with six decimal places — the format
// the SERP server accepts in its ll= query parameter, mirroring the
// "latitude/longitude pair as input" contract of the paper's PhantomJS
// script.
func (p Point) String() string {
	var buf [64]byte
	b := strconv.AppendFloat(buf[:0], p.Lat, 'f', 6, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, p.Lon, 'f', 6, 64)
	return string(b)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometres.
func DistanceKm(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dla := la2 - la1
	dlo := lo2 - lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceMiles returns the great-circle distance between a and b in miles.
func DistanceMiles(a, b Point) float64 {
	return DistanceKm(a, b) / KmPerMile
}

// Destination returns the point reached by travelling distKm kilometres from
// p along the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distKm float64) Point {
	ang := distKm / EarthRadiusKm
	brng := deg2rad(bearingDeg)
	la1 := deg2rad(p.Lat)
	lo1 := deg2rad(p.Lon)
	la2 := math.Asin(math.Sin(la1)*math.Cos(ang) + math.Cos(la1)*math.Sin(ang)*math.Cos(brng))
	lo2 := lo1 + math.Atan2(
		math.Sin(brng)*math.Sin(ang)*math.Cos(la1),
		math.Cos(ang)-math.Sin(la1)*math.Sin(la2),
	)
	lon := rad2deg(lo2)
	// Normalize longitude to [-180, 180].
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lat: rad2deg(la2), Lon: lon}
}

// Centroid returns the spherical centroid of the given points (the
// normalized mean of their unit vectors). It returns the zero Point for an
// empty input.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var x, y, z float64
	for _, p := range pts {
		la := deg2rad(p.Lat)
		lo := deg2rad(p.Lon)
		x += math.Cos(la) * math.Cos(lo)
		y += math.Cos(la) * math.Sin(lo)
		z += math.Sin(la)
	}
	n := float64(len(pts))
	x, y, z = x/n, y/n, z/n
	lon := math.Atan2(y, x)
	hyp := math.Sqrt(x*x + y*y)
	lat := math.Atan2(z, hyp)
	return Point{Lat: rad2deg(lat), Lon: rad2deg(lon)}
}

// ParsePoint parses the "lat,lon" wire format produced by Point.String:
// two decimal numbers and the comma between them, nothing else — no
// spaces, no trailing input.
func ParsePoint(s string) (Point, error) {
	lat, lon, ok := strings.Cut(s, ",")
	if !ok {
		return Point{}, fmt.Errorf("geo: parse point %q: want lat,lon", s)
	}
	var p Point
	var err error
	if p.Lat, err = parseDegrees(lat); err != nil {
		return Point{}, fmt.Errorf("geo: parse point %q: %w", s, err)
	}
	if p.Lon, err = parseDegrees(lon); err != nil {
		return Point{}, fmt.Errorf("geo: parse point %q: %w", s, err)
	}
	if !p.Valid() {
		return Point{}, fmt.Errorf("geo: point %q out of range", s)
	}
	return p, nil
}

// parseDegrees parses one coordinate: a decimal number and nothing else.
// strconv.ParseFloat alone also takes the rest of Go's float literal
// syntax — digit separators ("4_1.5"), hex floats — which the wire
// format never carries.
func parseDegrees(s string) (float64, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' {
			return 0, fmt.Errorf("%q is not a decimal number", s)
		}
	}
	return strconv.ParseFloat(s, 64)
}
