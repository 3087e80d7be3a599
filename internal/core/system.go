package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/device"
	"decentmeter/internal/energy"
	"decentmeter/internal/grid"
	"decentmeter/internal/protocol"
	"decentmeter/internal/radio"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// System is one assembled testbed.
type System struct {
	Params Params

	Env      *sim.Env
	Grid     *grid.Grid
	Medium   *radio.Medium
	Mesh     *backhaul.Mesh
	Chain    *blockchain.Chain
	Auth     *blockchain.Authority
	Registry *telemetry.Registry

	networks map[string]*Network
	devices  map[string]*Node

	epoch time.Time
	rng   *sim.RNG

	// wireBuf is the scratch the link layer encodes into; the DES is
	// single-threaded so one buffer serves every link. wireMsgs/wireBytes
	// account for the traffic that actually hit the air.
	wireBuf   []byte
	wireMsgs  uint64
	wireBytes uint64
}

// Network bundles one WAN: aggregator + AP + feeder.
type Network struct {
	ID         string
	Aggregator *aggregator.Aggregator
	AP         radio.AccessPoint
	Feeder     *grid.Feeder
	RTC        *sensor.DS3231
	// Signer is the aggregator's block-producing identity (the replicated
	// tier pre-seals consensus blocks with it).
	Signer *blockchain.Signer
}

// Node bundles one device with its physical position and load.
type Node struct {
	ID      string
	Device  *device.Device
	Profile energy.Profile
	RTC     *sensor.DS3231
	// Pos is the node's current physical position.
	Pos radio.Position
	// Network is the WAN whose feeder the node is plugged into ("" in
	// transit).
	Network  string
	lineOhms float64
}

// NewSystem builds an empty testbed.
func NewSystem(p Params) *System {
	env := sim.NewEnv(p.Seed)
	pl := radio.DefaultPathLoss()
	pl.Seed = p.Seed ^ 0x5ad10
	s := &System{
		Params:   p,
		Env:      env,
		Grid:     grid.New(func() time.Duration { return env.Now() }),
		Medium:   radio.NewMedium(pl),
		Mesh:     backhaul.NewMesh(env, p.BackhaulLatency),
		Auth:     blockchain.NewAuthority(),
		Registry: telemetry.NewRegistry(),
		networks: make(map[string]*Network),
		devices:  make(map[string]*Node),
		epoch:    time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC),
		rng:      env.RNG().Fork(),
	}
	s.Chain = blockchain.NewChain(s.Auth)
	return s
}

// AddNetwork creates a WAN: a feeder at a new grid location, an AP on the
// given channel, and an aggregator with its own head-end INA219 and RTC.
func (s *System) AddNetwork(id string, channel int) (*Network, error) {
	if _, ok := s.networks[id]; ok {
		return nil, fmt.Errorf("core: network %q exists", id)
	}
	idx := len(s.networks)
	feeder, err := s.Grid.AddFeeder(grid.Location(id), s.Params.Supply)
	if err != nil {
		return nil, err
	}
	ap := radio.AccessPoint{
		ID:         id,
		Pos:        radio.Position{X: float64(idx) * s.Params.APSpacing},
		Channel:    channel,
		TxPowerDBm: 20,
	}
	if err := s.Medium.AddAP(ap); err != nil {
		return nil, err
	}
	// Aggregator head sensor observes the whole feeder.
	bus := sensor.NewBus()
	ina := sensor.NewINA219(feeder, sensor.INA219Config{
		Seed:      s.rng.Uint64(),
		OffsetMax: s.Params.SensorOffsetMax,
		Now:       func() time.Duration { return s.Env.Now() },
	})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		return nil, err
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, s.Params.SensorMaxExpected, 0.1)
	if err != nil {
		return nil, err
	}
	rtc := sensor.NewDS3231(sensor.DS3231Config{
		Seed: s.rng.Uint64(),
		Now:  func() time.Duration { return s.Env.Now() },
	})
	rtc.SetTime(s.epoch)
	signer, err := blockchain.NewSigner(id)
	if err != nil {
		return nil, err
	}
	if err := s.Auth.Admit(id, signer.Public()); err != nil {
		return nil, err
	}
	agg, err := aggregator.New(aggregator.Config{
		ID:                id,
		Env:               s.Env,
		HeadMeter:         meter,
		WallClock:         rtc.Now,
		Mesh:              s.Mesh,
		Chain:             s.Chain,
		Signer:            signer,
		SendToDevice:      func(devID string, msg protocol.Message) error { return s.sendToDevice(id, devID, msg) },
		Tmeasure:          s.Params.Tmeasure,
		WindowInterval:    s.Params.WindowInterval,
		Slots:             s.Params.Slots,
		SumCheck:          s.Params.SumCheck,
		Registry:          s.Registry,
		Shards:            s.Params.AggregatorShards,
		MaxPendingRecords: s.Params.MaxPendingRecords,
	})
	if err != nil {
		return nil, err
	}
	n := &Network{ID: id, Aggregator: agg, AP: ap, Feeder: feeder, RTC: rtc, Signer: signer}
	s.networks[id] = n
	return n, nil
}

// EnableReplication turns the system's aggregators into a Cluster: from
// now on verified window batches seal through consensus onto per-replica
// chains (the shared s.Chain stops growing — read the ledger via
// Cluster.ChainOf), crashes fail devices over to live networks, and the
// orchestrator rebalances TDMA occupancy. Call it after AddNetwork and
// before Run.
func (s *System) EnableReplication(cfg ClusterConfig) (*Cluster, error) {
	if len(s.networks) < 2 {
		return nil, errors.New("core: replication needs at least 2 networks")
	}
	if cfg.ConsensusLatency <= 0 {
		cfg.ConsensusLatency = s.Params.BackhaulLatency
	}
	if cfg.F == 0 {
		cfg.F = s.Params.ConsensusF
	}
	if cfg.RebalanceInterval == 0 {
		cfg.RebalanceInterval = s.Params.RebalanceInterval
	}
	if cfg.PipelineDepth == 0 {
		cfg.PipelineDepth = s.Params.PipelineDepth
	}
	members := make([]ReplicaMember, 0, len(s.networks))
	for _, id := range s.NetworkIDs() {
		net := s.networks[id]
		members = append(members, ReplicaMember{ID: id, Agg: net.Aggregator, Signer: net.Signer})
	}
	epoch := s.epoch
	rs, err := NewCluster(s.Env, s.Auth,
		func() time.Time { return epoch.Add(s.Env.Now()) }, cfg, members)
	if err != nil {
		return nil, err
	}
	// Host hooks: a crash takes down the whole network head — AP off the
	// air (devices' sends fail, scans skip it) and mesh port dark — and
	// recovery restores both. Steering is the directed-roam control
	// channel of the orchestrator.
	rs.OnCrash = func(id string) {
		_ = s.Mesh.SetDown(id, true)
		s.Medium.RemoveAP(id)
	}
	rs.OnRecover = func(id string) {
		_ = s.Mesh.SetDown(id, false)
		if net, ok := s.networks[id]; ok {
			_ = s.Medium.AddAP(net.AP)
		}
	}
	rs.Steer = func(deviceID, aggregatorID string) {
		if node, ok := s.devices[deviceID]; ok {
			node.Device.Steer(aggregatorID)
		}
	}
	return rs, nil
}

// AddDevice creates a device and plugs it into networkID. The device's
// INA219 observes its own outlet on whatever feeder it is plugged into
// (the sensor travels with the device).
func (s *System) AddDevice(id, networkID string, profile energy.Profile) (*Node, error) {
	return s.AddDeviceWithChannel(id, networkID, profile, nil)
}

// TamperChannel wraps a device's sensor channel and scales what the sensor
// reports, modelling a compromised device that under-reports its
// consumption while its true draw is unchanged. The feeder (and hence the
// aggregator's complementary measurement) still sees the truth.
type TamperChannel struct {
	Inner  sensor.LoadChannel
	Factor float64
}

// TrueCurrent implements sensor.LoadChannel.
func (t *TamperChannel) TrueCurrent() units.Current {
	return units.Current(float64(t.Inner.TrueCurrent()) * t.Factor)
}

// TrueBusVoltage implements sensor.LoadChannel.
func (t *TamperChannel) TrueBusVoltage() units.Voltage { return t.Inner.TrueBusVoltage() }

// AddDeviceWithChannel creates a device whose INA219 observes channel
// instead of the default outlet channel (nil means default). Used for
// fault/fraud injection.
func (s *System) AddDeviceWithChannel(id, networkID string, profile energy.Profile, channel sensor.LoadChannel) (*Node, error) {
	if _, ok := s.devices[id]; ok {
		return nil, fmt.Errorf("core: device %q exists", id)
	}
	net, ok := s.networks[networkID]
	if !ok {
		return nil, fmt.Errorf("core: unknown network %q", networkID)
	}
	lineOhms := s.rng.Uniform(s.Params.LineOhmsMin, s.Params.LineOhmsMax)
	node := &Node{
		ID:       id,
		Profile:  profile,
		lineOhms: lineOhms,
	}
	// Position near the network's AP.
	angle := s.rng.Uniform(0, 2*math.Pi)
	node.Pos = radio.Position{
		X: net.AP.Pos.X + s.Params.DeviceRadius*math.Cos(angle),
		Y: net.AP.Pos.Y + s.Params.DeviceRadius*math.Sin(angle),
	}

	if channel == nil {
		channel = s.Grid.DeviceChannel(id)
	}
	bus := sensor.NewBus()
	ina := sensor.NewINA219(channel, sensor.INA219Config{
		Seed:      s.rng.Uint64(),
		OffsetMax: s.Params.SensorOffsetMax,
		Now:       func() time.Duration { return s.Env.Now() },
	})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		return nil, err
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, s.Params.SensorMaxExpected, 0.1)
	if err != nil {
		return nil, err
	}
	rtc := sensor.NewDS3231(sensor.DS3231Config{
		Seed: s.rng.Uint64(),
		Now:  func() time.Duration { return s.Env.Now() },
	})
	rtc.SetTime(s.epoch)
	node.RTC = rtc

	dev, err := device.New(device.Config{
		ID:        id,
		Env:       s.Env,
		Meter:     meter,
		WallClock: rtc.Now,
		Send:      func(aggID string, msg protocol.Message) error { return s.sendToAggregator(id, aggID, msg) },
		Scan:      func() (radio.ScanResult, time.Duration, bool) { return s.scanFor(id) },
		Tmeasure:  s.Params.Tmeasure,
		Seed:      s.rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	node.Device = dev
	s.devices[id] = node

	if err := s.plug(node, networkID); err != nil {
		return nil, err
	}
	dev.PlugIn()
	return node, nil
}

// plug attaches a node's load and sensor channel to a network's feeder.
func (s *System) plug(node *Node, networkID string) error {
	net, ok := s.networks[networkID]
	if !ok {
		return fmt.Errorf("core: unknown network %q", networkID)
	}
	if err := s.Grid.Plug(node.ID, grid.Location(networkID), node.Profile, node.lineOhms); err != nil {
		return err
	}
	node.Network = networkID
	_ = net // position updates happen in the callers
	return nil
}

// Network returns a network by ID.
func (s *System) Network(id string) (*Network, bool) {
	n, ok := s.networks[id]
	return n, ok
}

// DeviceNode returns a device node by ID.
func (s *System) DeviceNode(id string) (*Node, bool) {
	n, ok := s.devices[id]
	return n, ok
}

// NetworkIDs returns sorted network IDs.
func (s *System) NetworkIDs() []string {
	out := make([]string, 0, len(s.networks))
	for id := range s.networks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run advances the simulation by d.
func (s *System) Run(d time.Duration) {
	s.Env.RunUntil(s.Env.Now() + d)
}

// --- mobility -------------------------------------------------------------------

// UnplugDevice starts a transit: load off the feeder, device offline,
// position mid-way between networks (out of useful range).
func (s *System) UnplugDevice(id string) error {
	node, ok := s.devices[id]
	if !ok {
		return fmt.Errorf("core: unknown device %q", id)
	}
	if node.Network == "" {
		return errors.New("core: device already in transit")
	}
	from := node.Network
	if err := s.Grid.Unplug(id); err != nil {
		return err
	}
	node.Network = ""
	node.Device.Unplug()
	// Discard a temporary membership at the network being left.
	if net, ok := s.networks[from]; ok {
		net.Aggregator.ReleaseTemporary(id)
	}
	// Physically away from every AP.
	node.Pos = radio.Position{X: -1000, Y: -1000}
	return nil
}

// PlugDevice ends a transit at networkID: the load returns to that feeder,
// the device powers up and starts scanning for its reporting aggregator.
func (s *System) PlugDevice(id, networkID string) error {
	node, ok := s.devices[id]
	if !ok {
		return fmt.Errorf("core: unknown device %q", id)
	}
	if node.Network != "" {
		return fmt.Errorf("core: device %q still plugged at %s", id, node.Network)
	}
	net, ok := s.networks[networkID]
	if !ok {
		return fmt.Errorf("core: unknown network %q", networkID)
	}
	// New outlet, new branch resistance.
	node.lineOhms = s.rng.Uniform(s.Params.LineOhmsMin, s.Params.LineOhmsMax)
	if err := s.plug(node, networkID); err != nil {
		return err
	}
	angle := s.rng.Uniform(0, 2*math.Pi)
	node.Pos = radio.Position{
		X: net.AP.Pos.X + s.Params.DeviceRadius*math.Cos(angle),
		Y: net.AP.Pos.Y + s.Params.DeviceRadius*math.Sin(angle),
	}
	node.Device.PlugIn()
	return nil
}

// MoveDevice performs unplug -> transit for transitTime -> plug at dest.
// The actual handshake then runs inside the simulation.
func (s *System) MoveDevice(id, toNetwork string, transitTime time.Duration) error {
	if err := s.UnplugDevice(id); err != nil {
		return err
	}
	s.Env.Schedule(transitTime, func() {
		_ = s.PlugDevice(id, toNetwork)
	})
	return nil
}

// --- link layer -----------------------------------------------------------------

// reachable checks the radio link between a device and an aggregator's AP.
func (s *System) reachable(devID, aggID string) (float64, bool) {
	node, ok := s.devices[devID]
	if !ok {
		return 0, false
	}
	rssi, ok := s.Medium.RSSI(aggID, node.Pos)
	if !ok {
		return 0, false
	}
	if rssi < s.Medium.SensitivityDBm {
		return rssi, false
	}
	return rssi, true
}

// ErrUnreachable is returned when no radio path exists.
var ErrUnreachable = errors.New("core: link unreachable")

// transmit runs msg through the v2 wire codec, exactly as the MQTT
// substrate does: the receiver gets the decoded copy of the encoded bytes,
// not the sender's object. This keeps the DES honest about what the wire
// carries (and exercises the codec under every simulation scenario) while
// reusing one scratch buffer so the link layer itself does not allocate
// per message.
func (s *System) transmit(msg protocol.Message) (protocol.Message, error) {
	buf, err := protocol.AppendEncode(s.wireBuf[:0], msg)
	if err != nil {
		return nil, err
	}
	s.wireBuf = buf
	s.wireMsgs++
	s.wireBytes += uint64(len(buf))
	return protocol.Decode(buf)
}

// WireStats returns the number of protocol messages delivered over
// simulated links and their total encoded size in bytes.
func (s *System) WireStats() (msgs, bytes uint64) {
	return s.wireMsgs, s.wireBytes
}

// sendToAggregator models the device uplink: RSSI check, loss, latency.
func (s *System) sendToAggregator(devID, aggID string, msg protocol.Message) error {
	net, ok := s.networks[aggID]
	if !ok {
		return fmt.Errorf("core: unknown aggregator %q", aggID)
	}
	rssi, ok := s.reachable(devID, aggID)
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, devID, aggID)
	}
	if s.rng.Bool(s.Medium.PacketErrorRate(rssi)) {
		return nil // lost in the air; sender treats as sent
	}
	delivered, err := s.transmit(msg)
	if err != nil {
		return fmt.Errorf("core: uplink %s -> %s: %w", devID, aggID, err)
	}
	s.Env.Schedule(s.Params.LinkLatency, func() {
		if debugLinks {
			fmt.Printf("[%v] up %s->%s %v\n", s.Env.Now(), devID, aggID, delivered.MsgType())
		}
		net.Aggregator.HandleDeviceMessage(devID, delivered)
	})
	return nil
}

var debugLinks = false

// sendToDevice models the downlink.
func (s *System) sendToDevice(aggID, devID string, msg protocol.Message) error {
	node, ok := s.devices[devID]
	if !ok {
		return fmt.Errorf("core: unknown device %q", devID)
	}
	rssi, ok := s.reachable(devID, aggID)
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, aggID, devID)
	}
	if s.rng.Bool(s.Medium.PacketErrorRate(rssi)) {
		return nil
	}
	delivered, err := s.transmit(msg)
	if err != nil {
		return fmt.Errorf("core: downlink %s -> %s: %w", aggID, devID, err)
	}
	s.Env.Schedule(s.Params.LinkLatency, func() {
		if debugLinks {
			fmt.Printf("[%v] down %s->%s %v\n", s.Env.Now(), aggID, devID, delivered.MsgType())
		}
		node.Device.HandleMessage(aggID, delivered)
	})
	return nil
}

// scanFor runs the channel survey from a device's position.
func (s *System) scanFor(devID string) (radio.ScanResult, time.Duration, bool) {
	node, ok := s.devices[devID]
	if !ok {
		return radio.ScanResult{}, 0, false
	}
	results, dur := s.Medium.Scan(node.Pos, s.Params.Scan)
	if len(results) == 0 {
		return radio.ScanResult{}, dur, false
	}
	return results[0], dur, true
}

// EnergyReportedFor sums the chain's stored energy for a device.
func (s *System) EnergyReportedFor(deviceID string) units.Energy {
	var total units.Energy
	recs, _ := s.Chain.RecordsOf(deviceID) // the system's chain is in memory: no ErrReleased
	for _, r := range recs {
		total += r.Energy
	}
	return total
}
