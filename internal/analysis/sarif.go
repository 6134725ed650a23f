package analysis

// SARIF 2.1.0 output for chronolint (-format sarif), shaped for GitHub
// code scanning upload: one run, one rule per analyzer (plus the
// directive-grammar rule), results carrying module-relative locations
// under %SRCROOT% and the line-insensitive chronolint fingerprint as a
// partial fingerprint so alert identity survives code motion. Every
// finding gates, so every rule and result has level "error".

import "encoding/json"

// sarifSchema is the canonical 2.1.0 schema URI (validated by GitHub on
// upload; the integration test checks the document shape against the
// structural subset chronolint emits).
const sarifSchema = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// SARIFFingerprintKey names the partialFingerprints entry carrying the
// chronolint fingerprint.
const SARIFFingerprintKey = "chronoFingerprint/v1"

// sarifLevel is the level of every rule and result.
const sarifLevel = "error"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name    string      `json:"name"`
	Version string      `json:"version"`
	Rules   []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifText    `json:"shortDescription"`
	DefaultConfiguration sarifDefault `json:"defaultConfiguration"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifDefault struct {
	Level string `json:"level"`
}

type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	RuleIndex           int               `json:"ruleIndex"`
	Level               string            `json:"level"`
	Message             sarifText         `json:"message"`
	Locations           []sarifLocation   `json:"locations"`
	PartialFingerprints map[string]string `json:"partialFingerprints"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// SARIFReport marshals the result as a SARIF 2.1.0 log. The rule table
// lists every analyzer of the run (found or not — code scanning uses it
// to describe the tool), plus the directive rule.
func SARIFReport(analyzers []*Analyzer, res *Result) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	index := make(map[string]int, len(analyzers)+1)
	for _, a := range analyzers {
		index[a.Name] = len(rules)
		rules = append(rules, sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifText{Text: a.Doc},
			DefaultConfiguration: sarifDefault{Level: sarifLevel},
		})
	}
	index[DirectiveRule] = len(rules)
	rules = append(rules, sarifRule{
		ID: DirectiveRule,
		ShortDescription: sarifText{Text: "validate //chrono: directive grammar: unknown directives, " +
			"typo'd or reasonless //chrono:allow suppressions"},
		DefaultConfiguration: sarifDefault{Level: sarifLevel},
	})

	results := make([]sarifResult, 0, len(res.Findings))
	for _, f := range res.Findings {
		results = append(results, sarifResult{
			RuleID:    f.Rule,
			RuleIndex: index[f.Rule],
			Level:     sarifLevel,
			Message:   sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
			PartialFingerprints: map[string]string{SARIFFingerprintKey: f.Fingerprint},
		})
	}

	return json.MarshalIndent(sarifLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:    "chronolint",
				Version: "4.0.0",
				Rules:   rules,
			}},
			Results: results,
		}},
	}, "", "  ")
}
