package dataset

// oracleFsck is the independent map-based referential checker the fsck
// property tests compare fsckScan against: every index is a plain Go map
// built up front, and each record is checked against them in record
// order. It shares nothing with fsckScan except Report and the detail
// strings, so a bug in the census, edge index or membership pairs shows
// up as a diverging report.
func oracleFsck(s *Snapshot) *Report {
	r := newReport()
	r.Users, r.Games, r.Groups = len(s.Users), len(s.Games), len(s.Groups)

	type pair struct{ a, b uint64 }
	apps := make(map[uint32]bool, len(s.Games))
	userAt := make(map[uint64]int, len(s.Users))
	friends := make(map[pair]bool)
	memberOf := make(map[uint64]map[uint64]bool, len(s.Groups))
	for i := range s.Games {
		id := s.Games[i].AppID
		if apps[id] {
			r.add(ViolationDuplicateGame, "app %d appears more than once in the catalog", id)
			continue
		}
		apps[id] = true
	}
	for i := range s.Users {
		id := s.Users[i].SteamID
		if _, dup := userAt[id]; dup {
			r.add(ViolationDuplicateUser, "user %d appears more than once", id)
			continue
		}
		userAt[id] = i
	}
	groupSeen := make(map[uint64]bool, len(s.Groups))
	for i := range s.Groups {
		id := s.Groups[i].GID
		if groupSeen[id] {
			r.add(ViolationDuplicateGroup, "group %d appears more than once", id)
		}
		groupSeen[id] = true
	}
	for i := range s.Users {
		u := &s.Users[i]
		for _, f := range u.Friends {
			friends[pair{u.SteamID, f.SteamID}] = true
		}
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		set := make(map[uint64]bool, len(g.Members))
		for _, m := range g.Members {
			set[m] = true
		}
		memberOf[g.GID] = set
	}

	for i := range s.Users {
		u := &s.Users[i]
		r.RecordsVerified++
		for _, f := range u.Friends {
			if f.SteamID == u.SteamID {
				r.add(ViolationSelfFriend, "user %d lists itself as a friend", u.SteamID)
				continue
			}
			if _, ok := userAt[f.SteamID]; !ok {
				r.add(ViolationFriendUnknown, "user %d lists unknown account %d as a friend", u.SteamID, f.SteamID)
				continue
			}
			if !friends[pair{f.SteamID, u.SteamID}] {
				r.add(ViolationFriendAsymmetric, "user %d lists %d but %d does not list %d", u.SteamID, f.SteamID, f.SteamID, u.SteamID)
			}
		}
		owned := make(map[uint32]bool, len(u.Games))
		for _, g := range u.Games {
			if owned[g.AppID] {
				r.add(ViolationDuplicateOwnership, "user %d owns app %d twice", u.SteamID, g.AppID)
			}
			owned[g.AppID] = true
			if !apps[g.AppID] {
				r.add(ViolationOwnedAppUnknown, "user %d owns app %d which is not in the catalog", u.SteamID, g.AppID)
			}
			if g.TotalMinutes < 0 || g.TwoWeekMinutes < 0 {
				r.add(ViolationPlaytimeInvariant, "user %d app %d has negative playtime", u.SteamID, g.AppID)
			} else if int64(g.TwoWeekMinutes) > g.TotalMinutes {
				r.add(ViolationPlaytimeInvariant, "user %d app %d two-week playtime exceeds lifetime", u.SteamID, g.AppID)
			}
		}
		for _, gid := range u.Groups {
			set, ok := memberOf[gid]
			if !ok {
				r.add(ViolationMembershipUnknown, "user %d belongs to uncrawled group %d", u.SteamID, gid)
				continue
			}
			if !set[u.SteamID] {
				r.add(ViolationMembershipAsymmetric, "user %d lists group %d but the group does not list the user", u.SteamID, gid)
			}
		}
	}
	r.RecordsVerified += int64(len(s.Games))
	for i := range s.Groups {
		g := &s.Groups[i]
		r.RecordsVerified++
		for _, m := range g.Members {
			ui, ok := userAt[m]
			if !ok {
				r.add(ViolationMemberUnknown, "group %d lists unknown account %d as a member", g.GID, m)
				continue
			}
			found := false
			for _, gid := range s.Users[ui].Groups {
				if gid == g.GID {
					found = true
					break
				}
			}
			if !found {
				r.add(ViolationMembershipAsymmetric, "group %d lists user %d but the user does not list the group", g.GID, m)
			}
		}
	}
	return r
}
