package legal

// UseSeed switches l to the seed legalizer of legacy_test.go. The external
// flow parity referee uses it to run a whole CR&P engine on the seed path.
func UseSeed(l *Legalizer) { l.seed = l.runLegacy }
