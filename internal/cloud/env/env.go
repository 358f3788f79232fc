// Package env bundles one simulated cloud environment: a discrete-event
// kernel plus the FaaS, pub-sub, queue, object-storage and server services
// that FSD-Inference and its baselines run on, all metering into a single
// usage meter so billed costs can be validated against the cost model
// (paper §VI-F).
package env

import (
	"fsdinference/internal/cloud/ec2"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/s3"
	"fsdinference/internal/cloud/sns"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// Config collects the per-service configurations.
type Config struct {
	FaaS    faas.Config
	SNS     sns.Config
	SQS     sqs.Config
	S3      s3.Config
	EC2     ec2.Config
	KV      kvstore.Config
	Pricing pricing.Catalog
}

// DefaultConfig returns the calibrated AWS-like defaults for every service.
func DefaultConfig() Config {
	return Config{
		FaaS:    faas.DefaultConfig(),
		SNS:     sns.DefaultConfig(),
		SQS:     sqs.DefaultConfig(),
		S3:      s3.DefaultConfig(),
		EC2:     ec2.DefaultConfig(),
		KV:      kvstore.DefaultConfig(),
		Pricing: pricing.Default(),
	}
}

// Env is one simulated cloud region.
type Env struct {
	K       *sim.Kernel
	Meter   *usage.Meter
	FaaS    *faas.Platform
	SNS     *sns.Service
	SQS     *sqs.Service
	S3      *s3.Service
	EC2     *ec2.Service
	KV      *kvstore.Service
	Pricing pricing.Catalog

	deploySeq int
}

// NextDeployID sequences deployment names within this environment. Scoping
// the counter per environment (not process-globally) keeps independent
// environments — several services in one process, concurrent tests —
// deterministic and race-free.
func (e *Env) NextDeployID() int {
	e.deploySeq++
	return e.deploySeq
}

// New builds a fresh environment from the config.
func New(cfg Config) *Env {
	k := sim.New()
	m := usage.NewMeter()
	return &Env{
		K:       k,
		Meter:   m,
		FaaS:    faas.New(k, m, cfg.FaaS),
		SNS:     sns.New(k, m, cfg.SNS),
		SQS:     sqs.New(k, m, cfg.SQS),
		S3:      s3.New(k, m, cfg.S3),
		EC2:     ec2.New(k, m, cfg.EC2),
		KV:      kvstore.New(k, m, cfg.KV),
		Pricing: cfg.Pricing,
	}
}

// NewDefault builds an environment with default configuration.
func NewDefault() *Env { return New(DefaultConfig()) }
