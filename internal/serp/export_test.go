package serp

// The parse-error tables, for FuzzParseHTML's seed corpus in the external
// test package.
var (
	HTMLRejects    = htmlRejects
	DesktopRejects = desktopRejects
)
