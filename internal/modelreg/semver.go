package modelreg

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a semantic version within a model family. Majors mark
// incompatible retraining regimes (new feature templates, new label
// set), minors mark retrains on new data, patches mark re-publishes of
// the same training run (fixed provenance, re-verified artifact). The
// registry only enforces the ordering; the meaning is convention.
type Version struct {
	Major, Minor, Patch int
}

// ParseVersion parses "MAJOR.MINOR.PATCH". No prerelease or build
// suffixes: registry versions name immutable artifacts, not release
// trains.
func ParseVersion(s string) (Version, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return Version{}, fmt.Errorf("modelreg: bad version %q (want MAJOR.MINOR.PATCH)", s)
	}
	var nums [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || (len(p) > 1 && p[0] == '0') {
			return Version{}, fmt.Errorf("modelreg: bad version %q (component %q)", s, p)
		}
		nums[i] = n
	}
	return Version{nums[0], nums[1], nums[2]}, nil
}

func (v Version) String() string {
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Patch)
}

// Less orders versions semver-wise.
func (v Version) Less(o Version) bool {
	if v.Major != o.Major {
		return v.Major < o.Major
	}
	if v.Minor != o.Minor {
		return v.Minor < o.Minor
	}
	return v.Patch < o.Patch
}

// BumpMinor returns the next minor version (patch resets) — the default
// allocation for a retrain on new data.
func (v Version) BumpMinor() Version {
	return Version{v.Major, v.Minor + 1, 0}
}
