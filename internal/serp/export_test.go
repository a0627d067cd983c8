package serp

// The parse-error table and the empty-results page, for FuzzParseHTML's
// seed corpus in the external test package, and the fmt renderer,
// FuzzRenderHTML's oracle.
var (
	HTMLRejects         = htmlRejects
	EmptyPage           = emptyPage
	ReferenceRenderHTML = referenceRenderHTML
)
