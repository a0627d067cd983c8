package serp

// The parse-error tables, for FuzzParseHTML's seed corpus in the external
// test package, and the fmt renderers, FuzzRenderHTML's oracle.
var (
	HTMLRejects    = htmlRejects
	DesktopRejects = desktopRejects

	ReferenceRenderHTML        = referenceRenderHTML
	ReferenceRenderDesktopHTML = referenceRenderDesktopHTML
)

// DesktopMarker tells FuzzParseHTML which surface a document was read as.
const DesktopMarker = desktopMarker
