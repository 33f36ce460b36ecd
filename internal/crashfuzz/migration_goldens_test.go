package crashfuzz

// Pre-refactor goldens for the migration regression (see migration_test.go).
// Captured on the legacy silo engines at the commit that introduced the
// fault-plane refactor: the refactored engines must reproduce these exact
// injection counts and digests for the pinned seeds.

var (
	// The two crash goldens were re-captured once, when a swap-in began
	// publishing its frame as the page's version-zero copy: the campaign
	// reads every page after every restore, so it swaps pages in all the
	// time, and their frames no longer sit unflushed or leak.
	crashGoldenADR = Result{
		CrashesFired: 20, Restores: 20, Commits: 10, Rollbacks: 14,
		InFlightCommitted: 2, LinesAtRisk: 0xe8, LinesDropped: 0x6e,
		LinesTorn: 0x3e, AuditChecks: 0x1e,
	}
	crashGoldenADRDigest uint64 = 0x3e8b10f9cb1e3953

	crashGoldenEADR = Result{
		CrashesFired: 20, Restores: 20, Commits: 13, Rollbacks: 15,
		AuditChecks: 0x21,
	}
	crashGoldenEADRDigest uint64 = 0x50bad2aa23a4161a

	netGolden = NetResult{
		CrashesFired: 6, Restores: 6, Acked: 0x18c, Retransmits: 0x24,
		DroppedRequests: 0x6, DroppedResponses: 0x1c, Released: 0x18c,
		Checkpoints: 0x43, AuditChecks: 0x49,
	}
	netGoldenDigest uint64 = 0xd17ae4a30ce057ff

	mediaGolden = MediaResult{
		Injections: 12, Crashes: 12, RestoreCrashes: 1, PagesVerified: 288,
		Degraded: 10, Lost: 6, ReplicaRepairs: 0x7, MetaRepairs: 0x2,
		ScrubRepairs: 0x6, LinesPoisoned: 0x21, AuditChecks: 0x17,
	}
	mediaGoldenDigest uint64 = 0x9a49a0f97938740e

	replGolden = ReplResult{
		CrashesFired: 4, Restores: 4, Failovers: 8, MidSendProbes: 4,
		UnackedProbes: 4, NoAckedAtProbe: 8, Deltas: 0xd, FullSyncs: 0x7,
		BytesSent: 0x67963, Checkpoints: 0xd,
	}
	replGoldenDigest uint64 = 0x4ac47f26609bfd39

	clusterGolden = ClusterResult{
		CrashesFired: 8, Recoveries: 8, PowerCrashes: 1, ShardCrashes: 6,
		CoordCrashes: 1, MidRoute: 7, PreparedUncut: 1, Acked: 0x14,
		Retransmits: 0xb, Released: 0x14, Rounds: 0x7, AuditChecks: 0x24,
	}
	clusterGoldenDigest uint64 = 0x30927a00a39902cd

	reshardGolden = ReshardResult{
		CrashesFired: 4, Recoveries: 4, Adds: 4, MidStream: 1,
		InstalledUncut: 1, MidAnnounce: 1, PostCommit: 1, PowerCrashes: 2,
		SourceCrashes: 2, RolledBack: 2, RolledForward: 2, Migrations: 0x2,
		MigrationsAborted: 0x2, KeysMoved: 0x2, Acked: 0x15,
	}
	reshardGoldenDigest uint64 = 0xf52942f85a3d978e
)
