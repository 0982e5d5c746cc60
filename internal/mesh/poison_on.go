//go:build meshpoison

package mesh

// poison is on under the meshpoison build tag (go test -tags meshpoison):
// Release overwrites a packet's ID and Words with poisonWord and panics on
// a second release, so any read of a recycled packet shows up as corrupt
// data, a bad handler address or an unknown span.
const poison = true
