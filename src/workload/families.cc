#include "workload/families.h"

#include "schema/schema_builder.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/datagen.h"

namespace dynamite {
namespace workload {

namespace {

// ---------------------------------------------------------------- document

Family MakeYelp() {
  Family f;
  f.name = "Yelp";
  f.kind = 'D';
  f.paper_size = "4.7GB";
  f.description = "Business and reviews from Yelp";
  DocumentSchemaBuilder b;
  b.AddCollection("Business", {{"b_id", PrimitiveType::kInt},
                               {"b_name", PrimitiveType::kString},
                               {"b_city", PrimitiveType::kString},
                               {"b_stars", PrimitiveType::kInt}});
  b.AddCollection("Review", {{"r_id", PrimitiveType::kInt},
                             {"r_stars", PrimitiveType::kInt},
                             {"r_user", PrimitiveType::kInt}},
                  "Business");
  b.AddCollection("Hour", {{"h_day", PrimitiveType::kString},
                           {"h_open", PrimitiveType::kInt},
                           {"h_close", PrimitiveType::kInt}},
                  "Business");
  b.AddCollection("YUser", {{"u_id", PrimitiveType::kInt},
                            {"u_name", PrimitiveType::kString},
                            {"u_fans", PrimitiveType::kInt}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name YUser = "YUser", u_id = "u_id", u_name = "u_name", u_fans = "u_fans";
    const Name Business = "Business", b_id = "b_id", b_name = "b_name", b_city = "b_city",
               b_stars = "b_stars";
    const Name Review = "Review", r_id = "r_id", r_stars = "r_stars", r_user = "r_user";
    const Name Hour = "Hour", h_day = "h_day", h_open = "h_open", h_close = "h_close";
    Rng rng(seed);
    RecordForest forest;
    size_t n_users = scale + 1;
    for (size_t u = 0; u < n_users; ++u) {
      forest.roots.push_back(Rec(YUser, {{u_id, I(900 + static_cast<int64_t>(u))},
                                         {u_name, S(Pooled("user", u))},
                                         {u_fans, I(rng.NextInt(0, 50))}}));
    }
    int64_t review_id = 5000;
    for (size_t i = 0; i < scale; ++i) {
      RecordNode biz = Rec(Business, {{b_id, I(100 + static_cast<int64_t>(i))},
                                      {b_name, S(Pooled("biz", i))},
                                      {b_city, S(Pooled("city", i % 3))},
                                      {b_stars, I(rng.NextInt(1, 5))}});
      size_t n_reviews = 1 + rng.NextIndex(2);
      for (size_t r = 0; r < n_reviews; ++r) {
        AddChild(&biz, Review,
                 Rec(Review, {{r_id, I(review_id++)},
                              {r_stars, I(rng.NextInt(1, 5))},
                              {r_user, I(900 + static_cast<int64_t>((i + r) % n_users))}}));
      }
      AddChild(&biz, Hour,
               Rec(Hour, {{h_day, S(Pooled("day", (i) % 7))},
                          {h_open, I(rng.NextInt(6, 11))},
                          {h_close, I(rng.NextInt(17, 23))}}));
      forest.roots.push_back(std::move(biz));
    }
    return forest;
  };
  return f;
}

Family MakeImdb() {
  Family f;
  f.name = "IMDB";
  f.kind = 'D';
  f.paper_size = "6.3GB";
  f.description = "Movie and crew info from IMDB";
  DocumentSchemaBuilder b;
  b.AddCollection("Movie", {{"m_id", PrimitiveType::kInt},
                            {"m_title", PrimitiveType::kString},
                            {"m_year", PrimitiveType::kInt}});
  b.AddCollection("CastEntry", {{"c_pid", PrimitiveType::kInt},
                                {"c_role", PrimitiveType::kString}},
                  "Movie");
  b.AddCollection("Aka", {{"k_title", PrimitiveType::kString},
                          {"k_region", PrimitiveType::kString}},
                  "Movie");
  b.AddCollection("Person", {{"p_id", PrimitiveType::kInt},
                             {"p_name", PrimitiveType::kString},
                             {"p_birth", PrimitiveType::kInt}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name Person = "Person", p_id = "p_id", p_name = "p_name", p_birth = "p_birth";
    const Name Movie = "Movie", m_id = "m_id", m_title = "m_title", m_year = "m_year";
    const Name CastEntry = "CastEntry", c_pid = "c_pid", c_role = "c_role";
    const Name Aka = "Aka", k_title = "k_title", k_region = "k_region";
    Rng rng(seed);
    RecordForest forest;
    size_t n_people = scale + 2;
    for (size_t p = 0; p < n_people; ++p) {
      forest.roots.push_back(Rec(Person, {{p_id, I(700 + static_cast<int64_t>(p))},
                                          {p_name, S(Pooled("actor", p))},
                                          {p_birth, I(rng.NextInt(1940, 1995))}}));
    }
    for (size_t m = 0; m < scale; ++m) {
      RecordNode movie = Rec(Movie, {{m_id, I(10 + static_cast<int64_t>(m))},
                                     {m_title, S(Pooled("film", m))},
                                     {m_year, I(rng.NextInt(1990, 2019))}});
      size_t n_cast = 1 + rng.NextIndex(2);
      for (size_t c = 0; c < n_cast; ++c) {
        AddChild(&movie, CastEntry,
                 Rec(CastEntry,
                     {{c_pid, I(700 + static_cast<int64_t>((m + c) % n_people))},
                      {c_role, S(Pooled("role", m * 2 + c))}}));
      }
      AddChild(&movie, Aka,
               Rec(Aka, {{k_title, S(Pooled("aka", m))},
                         {k_region, S(Pooled("region", m % 4))}}));
      forest.roots.push_back(std::move(movie));
    }
    return forest;
  };
  return f;
}

Family MakeDblp() {
  Family f;
  f.name = "DBLP";
  f.kind = 'D';
  f.paper_size = "2.0GB";
  f.description = "Publication records from DBLP";
  DocumentSchemaBuilder b;
  b.AddCollection("Article", {{"art_id", PrimitiveType::kInt},
                              {"art_title", PrimitiveType::kString},
                              {"art_year", PrimitiveType::kInt},
                              {"art_venue", PrimitiveType::kString}});
  b.AddCollection("ArtAuthor", {{"aa_id", PrimitiveType::kInt},
                                {"aa_name", PrimitiveType::kString},
                                {"aa_pos", PrimitiveType::kInt}},
                  "Article");
  b.AddCollection("Inproc", {{"inp_id", PrimitiveType::kInt},
                             {"inp_title", PrimitiveType::kString},
                             {"inp_year", PrimitiveType::kInt},
                             {"inp_book", PrimitiveType::kString}});
  b.AddCollection("InpAuthor", {{"ia_id", PrimitiveType::kInt},
                                {"ia_name", PrimitiveType::kString},
                                {"ia_pos", PrimitiveType::kInt}},
                  "Inproc");
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name Article = "Article", art_id = "art_id", art_title = "art_title",
               art_year = "art_year", art_venue = "art_venue";
    const Name ArtAuthor = "ArtAuthor", aa_id = "aa_id", aa_name = "aa_name", aa_pos = "aa_pos";
    const Name Inproc = "Inproc", inp_id = "inp_id", inp_title = "inp_title", inp_year = "inp_year",
               inp_book = "inp_book";
    const Name InpAuthor = "InpAuthor", ia_id = "ia_id", ia_name = "ia_name", ia_pos = "ia_pos";
    Rng rng(seed);
    RecordForest forest;
    int64_t author_id = 3000;
    for (size_t a = 0; a < scale; ++a) {
      RecordNode art = Rec(Article, {{art_id, I(40 + static_cast<int64_t>(a))},
                                     {art_title, S(Pooled("atitle", a))},
                                     {art_year, I(rng.NextInt(2000, 2019))},
                                     {art_venue, S(Pooled("journal", a % 3))}});
      size_t n_auth = 1 + rng.NextIndex(2);
      for (size_t j = 0; j < n_auth; ++j) {
        AddChild(&art, ArtAuthor,
                 Rec(ArtAuthor, {{aa_id, I(author_id++)},
                                 {aa_name, S(Pooled("author", (a + j) % (scale + 2)))},
                                 {aa_pos, I(static_cast<int64_t>(j) + 1)}}));
      }
      forest.roots.push_back(std::move(art));
      RecordNode inp = Rec(Inproc, {{inp_id, I(80 + static_cast<int64_t>(a))},
                                    {inp_title, S(Pooled("ptitle", a))},
                                    {inp_year, I(rng.NextInt(2000, 2019))},
                                    {inp_book, S(Pooled("conf", a % 3))}});
      // Conference authors use a separate name pool and position range so a
      // curated example never makes (name, pos) pairs coincide between
      // journal and conference authors (which would license a spurious
      // cross join consistent with the example).
      AddChild(&inp, InpAuthor,
               Rec(InpAuthor, {{ia_id, I(author_id++)},
                               {ia_name, S(Pooled("cauthor", a % (scale + 2)))},
                               {ia_pos, I(static_cast<int64_t>(a % 2) + 5)}}));
      forest.roots.push_back(std::move(inp));
    }
    return forest;
  };
  return f;
}

Family MakeMondial() {
  Family f;
  f.name = "Mondial";
  f.kind = 'D';
  f.paper_size = "3.7MB";
  f.description = "Geography information";
  DocumentSchemaBuilder b;
  b.AddCollection("Country", {{"co_code", PrimitiveType::kInt},
                              {"co_name", PrimitiveType::kString},
                              {"co_pop", PrimitiveType::kInt}});
  b.AddCollection("Province", {{"pr_name", PrimitiveType::kString},
                               {"pr_pop", PrimitiveType::kInt}},
                  "Country");
  b.AddCollection("PCity", {{"ci_id", PrimitiveType::kInt},
                            {"ci_name", PrimitiveType::kString},
                            {"ci_pop", PrimitiveType::kInt}},
                  "Province");
  b.AddCollection("Org", {{"or_id", PrimitiveType::kInt},
                          {"or_name", PrimitiveType::kString},
                          {"or_member", PrimitiveType::kInt}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name Country = "Country", co_code = "co_code", co_name = "co_name", co_pop = "co_pop";
    const Name Province = "Province", pr_name = "pr_name", pr_pop = "pr_pop";
    const Name PCity = "PCity", ci_id = "ci_id", ci_name = "ci_name", ci_pop = "ci_pop";
    const Name Org = "Org", or_id = "or_id", or_name = "or_name", or_member = "or_member";
    Rng rng(seed);
    RecordForest forest;
    int64_t city_id = 600;
    for (size_t c = 0; c < scale; ++c) {
      RecordNode country = Rec(Country, {{co_code, I(1 + static_cast<int64_t>(c))},
                                         {co_name, S(Pooled("country", c))},
                                         {co_pop, I(rng.NextInt(100000, 90000000))}});
      size_t n_prov = 1 + rng.NextIndex(2);
      for (size_t p = 0; p < n_prov; ++p) {
        RecordNode prov = Rec(Province, {{pr_name, S(Pooled("prov", c * 3 + p))},
                                         {pr_pop, I(rng.NextInt(10000, 4000000))}});
        RecordNode city = Rec(PCity, {{ci_id, I(city_id++)},
                                      {ci_name, S(Pooled("town", c * 3 + p))},
                                      {ci_pop, I(rng.NextInt(1000, 900000))}});
        AddChild(&prov, PCity, std::move(city));
        AddChild(&country, Province, std::move(prov));
      }
      forest.roots.push_back(std::move(country));
      forest.roots.push_back(Rec(Org, {{or_id, I(300 + static_cast<int64_t>(c))},
                                       {or_name, S(Pooled("org", c))},
                                       {or_member, I(1 + static_cast<int64_t>(c))}}));
    }
    return forest;
  };
  return f;
}

// -------------------------------------------------------------- relational

Family MakeMlb() {
  Family f;
  f.name = "MLB";
  f.kind = 'R';
  f.paper_size = "0.9GB";
  f.description = "Pitch data of Major League Baseball";
  RelationalSchemaBuilder b;
  b.AddTable("teams", {{"t_id", PrimitiveType::kInt},
                       {"t_name", PrimitiveType::kString},
                       {"t_league", PrimitiveType::kString}});
  b.AddTable("players", {{"pl_id", PrimitiveType::kInt},
                         {"pl_name", PrimitiveType::kString},
                         {"pl_team", PrimitiveType::kInt},
                         {"pl_pos", PrimitiveType::kString}});
  b.AddTable("pitches", {{"pi_id", PrimitiveType::kInt},
                         {"pi_pitcher", PrimitiveType::kInt},
                         {"pi_type", PrimitiveType::kString},
                         {"pi_speed", PrimitiveType::kInt}});
  b.AddTable("games", {{"g_id", PrimitiveType::kInt},
                       {"g_home", PrimitiveType::kInt},
                       {"g_away", PrimitiveType::kInt}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name teams = "teams", t_id = "t_id", t_name = "t_name", t_league = "t_league";
    const Name players = "players", pl_id = "pl_id", pl_name = "pl_name", pl_team = "pl_team",
               pl_pos = "pl_pos";
    const Name pitches = "pitches", pi_id = "pi_id", pi_pitcher = "pi_pitcher", pi_type = "pi_type",
               pi_speed = "pi_speed";
    const Name games = "games", g_id = "g_id", g_home = "g_home", g_away = "g_away";
    Rng rng(seed);
    RecordForest forest;
    size_t n_teams = std::max<size_t>(2, scale);
    for (size_t t = 0; t < n_teams; ++t) {
      forest.roots.push_back(Rec(teams, {{t_id, I(10 + static_cast<int64_t>(t))},
                                         {t_name, S(Pooled("team", t))},
                                         {t_league, S(Pooled("league", t % 2))}}));
    }
    size_t n_players = n_teams * 2;
    for (size_t p = 0; p < n_players; ++p) {
      forest.roots.push_back(
          Rec(players, {{pl_id, I(100 + static_cast<int64_t>(p))},
                        {pl_name, S(Pooled("player", p))},
                        {pl_team, I(10 + static_cast<int64_t>(p % n_teams))},
                        {pl_pos, S(Pooled("pos", p % 4))}}));
      forest.roots.push_back(
          Rec(pitches, {{pi_id, I(4000 + static_cast<int64_t>(p))},
                        {pi_pitcher, I(100 + static_cast<int64_t>(p))},
                        {pi_type, S(Pooled("pitch", p % 3))},
                        {pi_speed, I(rng.NextInt(80, 101))}}));
    }
    for (size_t g = 0; g + 1 < n_teams; ++g) {
      forest.roots.push_back(
          Rec(games, {{g_id, I(7000 + static_cast<int64_t>(g))},
                      {g_home, I(10 + static_cast<int64_t>(g))},
                      {g_away, I(10 + static_cast<int64_t>(g + 1))}}));
    }
    return forest;
  };
  return f;
}

Family MakeAirbnb() {
  Family f;
  f.name = "Airbnb";
  f.kind = 'R';
  f.paper_size = "0.4GB";
  f.description = "Berlin Airbnb data";
  RelationalSchemaBuilder b;
  b.AddTable("hosts", {{"h_id", PrimitiveType::kInt},
                       {"h_name", PrimitiveType::kString},
                       {"h_since", PrimitiveType::kInt}});
  b.AddTable("listings", {{"li_id", PrimitiveType::kInt},
                          {"li_name", PrimitiveType::kString},
                          {"li_host", PrimitiveType::kInt},
                          {"li_hood", PrimitiveType::kString},
                          {"li_price", PrimitiveType::kInt}});
  b.AddTable("stays", {{"sy_id", PrimitiveType::kInt},
                       {"sy_listing", PrimitiveType::kInt},
                       {"sy_rating", PrimitiveType::kInt}});
  b.AddTable("hoods", {{"nb_name", PrimitiveType::kString},
                       {"nb_borough", PrimitiveType::kString}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name hosts = "hosts", h_id = "h_id", h_name = "h_name", h_since = "h_since";
    const Name hoods = "hoods", nb_name = "nb_name", nb_borough = "nb_borough";
    const Name listings = "listings", li_id = "li_id", li_name = "li_name", li_host = "li_host",
               li_hood = "li_hood", li_price = "li_price";
    const Name stays = "stays", sy_id = "sy_id", sy_listing = "sy_listing", sy_rating = "sy_rating";
    Rng rng(seed);
    RecordForest forest;
    size_t n_hosts = std::max<size_t>(2, scale);
    for (size_t h = 0; h < n_hosts; ++h) {
      // h_since deliberately collides across hosts so it never looks like a
      // key in a curated example.
      forest.roots.push_back(Rec(hosts, {{h_id, I(50 + static_cast<int64_t>(h))},
                                         {h_name, S(Pooled("host", h))},
                                         {h_since, I(2015 + static_cast<int64_t>(h % 2))}}));
    }
    for (size_t n = 0; n < 3; ++n) {
      forest.roots.push_back(Rec(hoods, {{nb_name, S(Pooled("hood", n))},
                                         {nb_borough, S(Pooled("borough", n % 2))}}));
    }
    size_t n_listings = n_hosts * 2;
    for (size_t l = 0; l < n_listings; ++l) {
      // The hood index is decoupled from the host index so hosts own
      // listings in several hoods (otherwise "group by hood" is
      // indistinguishable from "group by host" on a small example).
      forest.roots.push_back(
          Rec(listings, {{li_id, I(500 + static_cast<int64_t>(l))},
                         {li_name, S(Pooled("flat", l))},
                         {li_host, I(50 + static_cast<int64_t>(l % n_hosts))},
                         {li_hood, S(Pooled("hood", (l + l / n_hosts) % 3))},
                         {li_price, I(rng.NextInt(30, 250))}}));
      forest.roots.push_back(Rec(stays, {{sy_id, I(9000 + static_cast<int64_t>(l))},
                                         {sy_listing, I(500 + static_cast<int64_t>(l))},
                                         {sy_rating, I(rng.NextInt(1, 5))}}));
    }
    return forest;
  };
  return f;
}

Family MakePatent() {
  Family f;
  f.name = "Patent";
  f.kind = 'R';
  f.paper_size = "1.7GB";
  f.description = "Patent Litigation Data 1963-2015";
  RelationalSchemaBuilder b;
  b.AddTable("patents", {{"pa_id", PrimitiveType::kInt},
                         {"pa_title", PrimitiveType::kString},
                         {"pa_year", PrimitiveType::kInt}});
  b.AddTable("cases", {{"ca_id", PrimitiveType::kInt},
                       {"ca_patent", PrimitiveType::kInt},
                       {"ca_court", PrimitiveType::kString},
                       {"ca_filed", PrimitiveType::kInt}});
  b.AddTable("parties", {{"pt_id", PrimitiveType::kInt},
                         {"pt_case", PrimitiveType::kInt},
                         {"pt_name", PrimitiveType::kString},
                         {"pt_role", PrimitiveType::kString}});
  b.AddTable("attorneys", {{"at_id", PrimitiveType::kInt},
                           {"at_case", PrimitiveType::kInt},
                           {"at_name", PrimitiveType::kString}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name patents = "patents", pa_id = "pa_id", pa_title = "pa_title", pa_year = "pa_year";
    const Name cases = "cases", ca_id = "ca_id", ca_patent = "ca_patent", ca_court = "ca_court",
               ca_filed = "ca_filed";
    const Name parties = "parties", pt_id = "pt_id", pt_case = "pt_case", pt_name = "pt_name",
               pt_role = "pt_role";
    const Name attorneys = "attorneys", at_id = "at_id", at_case = "at_case", at_name = "at_name";
    Rng rng(seed);
    RecordForest forest;
    for (size_t p = 0; p < scale; ++p) {
      // Years collide on purpose: a curated example must not present the
      // year as an alternative key (it would license grouping by year).
      forest.roots.push_back(Rec(patents, {{pa_id, I(20 + static_cast<int64_t>(p))},
                                           {pa_title, S(Pooled("invention", p))},
                                           {pa_year, I(1995 + static_cast<int64_t>(p % 2))}}));
      forest.roots.push_back(
          Rec(cases, {{ca_id, I(300 + static_cast<int64_t>(p))},
                      {ca_patent, I(20 + static_cast<int64_t>(p))},
                      {ca_court, S(Pooled("court", p % 3))},
                      {ca_filed, I(rng.NextInt(1990, 2015))}}));
      forest.roots.push_back(
          Rec(parties, {{pt_id, I(4000 + static_cast<int64_t>(p))},
                        {pt_case, I(300 + static_cast<int64_t>(p))},
                        {pt_name, S(Pooled("party", p))},
                        {pt_role, S(Pooled("prole", p % 2))}}));
      forest.roots.push_back(
          Rec(attorneys, {{at_id, I(60000 + static_cast<int64_t>(p))},
                          {at_case, I(300 + static_cast<int64_t>(p))},
                          {at_name, S(Pooled("attorney", p))}}));
    }
    return forest;
  };
  return f;
}

Family MakeBike() {
  Family f;
  f.name = "Bike";
  f.kind = 'R';
  f.paper_size = "2.7GB";
  f.description = "Bike trip data in Bay Area";
  RelationalSchemaBuilder b;
  b.AddTable("stations", {{"st_id", PrimitiveType::kInt},
                          {"st_name", PrimitiveType::kString},
                          {"st_city", PrimitiveType::kString},
                          {"st_docks", PrimitiveType::kInt}});
  b.AddTable("trips", {{"tp_id", PrimitiveType::kInt},
                       {"tp_start", PrimitiveType::kInt},
                       {"tp_end", PrimitiveType::kInt},
                       {"tp_dur", PrimitiveType::kInt},
                       {"tp_bike", PrimitiveType::kInt}});
  b.AddTable("bikes", {{"bk_id", PrimitiveType::kInt},
                       {"bk_model", PrimitiveType::kString}});
  b.AddTable("weather", {{"wx_day", PrimitiveType::kInt},
                         {"wx_city", PrimitiveType::kString},
                         {"wx_temp", PrimitiveType::kInt}});
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name stations = "stations", st_id = "st_id", st_name = "st_name", st_city = "st_city",
               st_docks = "st_docks";
    const Name bikes = "bikes", bk_id = "bk_id", bk_model = "bk_model";
    const Name trips = "trips", tp_id = "tp_id", tp_start = "tp_start", tp_end = "tp_end",
               tp_dur = "tp_dur", tp_bike = "tp_bike";
    const Name weather = "weather", wx_day = "wx_day", wx_city = "wx_city", wx_temp = "wx_temp";
    Rng rng(seed);
    RecordForest forest;
    size_t n_stations = std::max<size_t>(2, scale);
    for (size_t s = 0; s < n_stations; ++s) {
      // Cities collide across stations (s % 2) so "city" can never pass for
      // a station key in a curated example.
      forest.roots.push_back(Rec(stations, {{st_id, I(70 + static_cast<int64_t>(s))},
                                            {st_name, S(Pooled("station", s))},
                                            {st_city, S(Pooled("baycity", s % 2))},
                                            {st_docks, I(rng.NextInt(10, 40))}}));
    }
    size_t n_bikes = std::max<size_t>(2, scale);
    for (size_t k = 0; k < n_bikes; ++k) {
      forest.roots.push_back(Rec(bikes, {{bk_id, I(8000 + static_cast<int64_t>(k))},
                                         {bk_model, S(Pooled("model", k % 2))}}));
    }
    // Trip starts cover every station (Bike-1 groups departures by
    // station). Trip ends (a) never equal the start — a start==end trip
    // licenses self-join programs that coincide with the identity mapping
    // on a small example — and (b) cover strictly fewer stations than
    // starts, which keeps end-station values from aliasing start-station
    // values in both directions and inflating the sketch.
    for (size_t t = 0; t < n_stations * 2; ++t) {
      size_t start_idx = t % n_stations;
      size_t end_idx;
      if (n_stations <= 2) {
        end_idx = (start_idx + 1) % n_stations;
      } else {
        end_idx = (start_idx + 1 + t / n_stations) % (n_stations - 1);
        if (end_idx == start_idx) end_idx = (end_idx + 1) % (n_stations - 1);
      }
      forest.roots.push_back(Rec(
          trips,
          {{tp_id, I(100000 + static_cast<int64_t>(t))},
           {tp_start, I(70 + static_cast<int64_t>(start_idx))},
           {tp_end, I(70 + static_cast<int64_t>(end_idx))},
           // Durations collide across trips (5 rounded values) so a
           // duration never acts as a trip or station key in an example.
           {tp_dur, I(300 + 60 * static_cast<int64_t>(t % 5))},
           // Decoupled from the start-station index so a bike never looks
           // like a grouping key for stations in a small example.
           {tp_bike, I(8000 + static_cast<int64_t>((t + t / n_bikes) % n_bikes))}}));
    }
    for (size_t d = 0; d < 3; ++d) {
      forest.roots.push_back(Rec(weather, {{wx_day, I(static_cast<int64_t>(d) + 1)},
                                           {wx_city, S(Pooled("baycity", d % 3))},
                                           {wx_temp, I(rng.NextInt(8, 35))}}));
    }
    return forest;
  };
  return f;
}

// ------------------------------------------------------------------- graph

Family MakeTencent() {
  Family f;
  f.name = "Tencent";
  f.kind = 'G';
  f.paper_size = "1.0GB";
  f.description = "User followers in Tencent Weibo";
  GraphSchemaBuilder b;
  b.AddNodeType("TUser", {{"tu_id", PrimitiveType::kInt},
                          {"tu_name", PrimitiveType::kString},
                          {"tu_region", PrimitiveType::kString}});
  b.AddEdgeType("TFollow", {{"tf_weight", PrimitiveType::kInt}}, "tf");
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name TUser = "TUser", tu_id = "tu_id", tu_name = "tu_name", tu_region = "tu_region";
    const Name TFollow = "TFollow", tf_source = "tf_source", tf_target = "tf_target",
               tf_weight = "tf_weight";
    Rng rng(seed);
    RecordForest forest;
    size_t n = std::max<size_t>(3, scale + 1);
    for (size_t u = 0; u < n; ++u) {
      forest.roots.push_back(Rec(TUser, {{tu_id, I(static_cast<int64_t>(u) + 1)},
                                         {tu_name, S(Pooled("weibo", u))},
                                         {tu_region, S(Pooled("region", u % 3))}}));
    }
    for (size_t u = 0; u < n; ++u) {
      size_t v = (u + 1 + rng.NextIndex(n - 1)) % n;
      if (v == u) v = (u + 1) % n;
      forest.roots.push_back(
          Rec(TFollow, {{tf_source, I(static_cast<int64_t>(u) + 1)},
                        {tf_target, I(static_cast<int64_t>(v) + 1)},
                        {tf_weight, I(rng.NextInt(1, 100))}}));
    }
    return forest;
  };
  return f;
}

Family MakeRetina() {
  Family f;
  f.name = "Retina";
  f.kind = 'G';
  f.paper_size = "0.1GB";
  f.description = "Biological info of mouse retina";
  GraphSchemaBuilder b;
  b.AddNodeType("RNeuron", {{"rn_id", PrimitiveType::kInt},
                            {"rn_type", PrimitiveType::kString},
                            {"rn_layer", PrimitiveType::kInt},
                            {"rn_size", PrimitiveType::kInt}});
  b.AddEdgeType("RContact", {{"rc_weight", PrimitiveType::kInt},
                             {"rc_kind", PrimitiveType::kString}},
                "rc");
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name RNeuron = "RNeuron", rn_id = "rn_id", rn_type = "rn_type", rn_layer = "rn_layer",
               rn_size = "rn_size";
    const Name RContact = "RContact", rc_source = "rc_source", rc_target = "rc_target",
               rc_weight = "rc_weight", rc_kind = "rc_kind";
    Rng rng(seed);
    RecordForest forest;
    size_t n = std::max<size_t>(3, scale + 1);
    for (size_t i = 0; i < n; ++i) {
      // Cell types collide across neurons (i % 2) so the type never looks
      // like a neuron key in a curated example.
      forest.roots.push_back(Rec(RNeuron, {{rn_id, I(static_cast<int64_t>(i) + 1)},
                                           {rn_type, S(Pooled("celltype", i % 2))},
                                           {rn_layer, I(rng.NextInt(1, 6))},
                                           {rn_size, I(rng.NextInt(5, 50))}}));
    }
    for (size_t i = 0; i < n; ++i) {
      size_t j = (i + 1) % n;
      forest.roots.push_back(Rec(RContact, {{rc_source, I(static_cast<int64_t>(i) + 1)},
                                            {rc_target, I(static_cast<int64_t>(j) + 1)},
                                            {rc_weight, I(rng.NextInt(1, 30))},
                                            {rc_kind, S(Pooled("synapse", i % 2))}}));
    }
    return forest;
  };
  return f;
}

Family MakeMovie() {
  Family f;
  f.name = "Movie";
  f.kind = 'G';
  f.paper_size = "0.1GB";
  f.description = "Movie ratings from MovieLens";
  GraphSchemaBuilder b;
  b.AddNodeType("GFilm", {{"gf_id", PrimitiveType::kInt},
                          {"gf_title", PrimitiveType::kString},
                          {"gf_year", PrimitiveType::kInt}});
  b.AddNodeType("GPerson", {{"gp_id", PrimitiveType::kInt},
                            {"gp_name", PrimitiveType::kString}});
  b.AddNodeType("GUser", {{"gu_id", PrimitiveType::kInt},
                          {"gu_name", PrimitiveType::kString}});
  b.AddEdgeType("GActs", {{"ga_role", PrimitiveType::kString}}, "ga");
  b.AddEdgeType("GRates", {{"gr_score", PrimitiveType::kInt}}, "gr");
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name GFilm = "GFilm", gf_id = "gf_id", gf_title = "gf_title", gf_year = "gf_year";
    const Name GPerson = "GPerson", gp_id = "gp_id", gp_name = "gp_name";
    const Name GUser = "GUser", gu_id = "gu_id", gu_name = "gu_name";
    const Name GActs = "GActs", ga_source = "ga_source", ga_target = "ga_target",
               ga_role = "ga_role";
    const Name GRates = "GRates", gr_source = "gr_source", gr_target = "gr_target",
               gr_score = "gr_score";
    Rng rng(seed);
    RecordForest forest;
    size_t n = std::max<size_t>(2, scale);
    for (size_t m = 0; m < n; ++m) {
      // Film years collide so "year" never masquerades as a film key.
      forest.roots.push_back(Rec(GFilm, {{gf_id, I(static_cast<int64_t>(m) + 1)},
                                         {gf_title, S(Pooled("gmovie", m))},
                                         {gf_year, I(2001 + static_cast<int64_t>(m % 2))}}));
      forest.roots.push_back(Rec(GPerson, {{gp_id, I(200 + static_cast<int64_t>(m))},
                                           {gp_name, S(Pooled("gstar", m))}}));
      forest.roots.push_back(Rec(GUser, {{gu_id, I(400 + static_cast<int64_t>(m))},
                                         {gu_name, S(Pooled("guser", m))}}));
    }
    for (size_t m = 0; m < n; ++m) {
      forest.roots.push_back(
          Rec(GActs, {{ga_source, I(200 + static_cast<int64_t>(m))},
                      {ga_target, I(static_cast<int64_t>((m % n)) + 1)},
                      {ga_role, S(Pooled("grole", m))}}));
      forest.roots.push_back(
          Rec(GRates, {{gr_source, I(400 + static_cast<int64_t>(m))},
                       {gr_target, I(static_cast<int64_t>(((m + 1) % n)) + 1)},
                       {gr_score, I(rng.NextInt(1, 5))}}));
    }
    return forest;
  };
  return f;
}

Family MakeSoccer() {
  Family f;
  f.name = "Soccer";
  f.kind = 'G';
  f.paper_size = "0.2GB";
  f.description = "Transfer info of soccer players";
  GraphSchemaBuilder b;
  b.AddNodeType("SPlayer", {{"sp_id", PrimitiveType::kInt},
                            {"sp_name", PrimitiveType::kString},
                            {"sp_country", PrimitiveType::kString}});
  b.AddNodeType("SClub", {{"sc_id", PrimitiveType::kInt},
                          {"sc_name", PrimitiveType::kString},
                          {"sc_league", PrimitiveType::kString}});
  b.AddNodeType("SCoach", {{"sco_id", PrimitiveType::kInt},
                           {"sco_name", PrimitiveType::kString}});
  b.AddEdgeType("STransfer", {{"str_player", PrimitiveType::kInt},
                              {"str_fee", PrimitiveType::kInt},
                              {"str_season", PrimitiveType::kInt}},
                "str");
  b.AddEdgeType("SPlays", {{"spl_shirt", PrimitiveType::kInt}}, "spl");
  b.AddEdgeType("SManages", {{"sm_since", PrimitiveType::kInt}}, "sm");
  f.schema = b.Build().ValueOrDie();
  f.generate = [](uint64_t seed, size_t scale) {
    // Names resolved once per instance, not per record.
    const Name SClub = "SClub", sc_id = "sc_id", sc_name = "sc_name", sc_league = "sc_league";
    const Name SCoach = "SCoach", sco_id = "sco_id", sco_name = "sco_name";
    const Name SManages = "SManages", sm_source = "sm_source", sm_target = "sm_target",
               sm_since = "sm_since";
    const Name SPlayer = "SPlayer", sp_id = "sp_id", sp_name = "sp_name", sp_country = "sp_country";
    const Name SPlays = "SPlays", spl_source = "spl_source", spl_target = "spl_target",
               spl_shirt = "spl_shirt";
    const Name STransfer = "STransfer", str_source = "str_source", str_target = "str_target",
               str_player = "str_player", str_fee = "str_fee", str_season = "str_season";
    Rng rng(seed);
    RecordForest forest;
    size_t n_clubs = std::max<size_t>(2, scale);
    size_t n_players = n_clubs * 2;
    for (size_t c = 0; c < n_clubs; ++c) {
      forest.roots.push_back(Rec(SClub, {{sc_id, I(30 + static_cast<int64_t>(c))},
                                         {sc_name, S(Pooled("club", c))},
                                         {sc_league, S(Pooled("sleague", c % 2))}}));
      forest.roots.push_back(Rec(SCoach, {{sco_id, I(900 + static_cast<int64_t>(c))},
                                          {sco_name, S(Pooled("coach", c))}}));
      forest.roots.push_back(Rec(SManages, {{sm_source, I(900 + static_cast<int64_t>(c))},
                                            {sm_target, I(30 + static_cast<int64_t>(c))},
                                            {sm_since, I(rng.NextInt(2015, 2020))}}));
    }
    for (size_t p = 0; p < n_players; ++p) {
      // Country is decoupled from the club index so "group squad by player
      // country" is distinguishable from "group by club" in an example.
      size_t nation = (p + p / n_clubs) % 3;
      forest.roots.push_back(Rec(SPlayer, {{sp_id, I(100 + static_cast<int64_t>(p))},
                                           {sp_name, S(Pooled("footballer", p))},
                                           {sp_country, S(Pooled("nation", nation))}}));
      forest.roots.push_back(
          Rec(SPlays, {{spl_source, I(100 + static_cast<int64_t>(p))},
                       {spl_target, I(30 + static_cast<int64_t>(p % n_clubs))},
                       {spl_shirt, I(static_cast<int64_t>(p) + 1)}}));
    }
    for (size_t t = 0; t + 1 < n_clubs; ++t) {
      // The transferred player is deliberately NOT one who plays for the
      // source club, so "player of the transfer" and "player at the source
      // club" are distinguishable in a curated example.
      forest.roots.push_back(
          Rec(STransfer, {{str_source, I(30 + static_cast<int64_t>(t))},
                          {str_target, I(30 + static_cast<int64_t>(t + 1))},
                          {str_player, I(100 + static_cast<int64_t>((t + 1) % n_players))},
                          {str_fee, I(rng.NextInt(1000000, 80000000))},
                          {str_season, I(rng.NextInt(2012, 2020))}}));
    }
    return forest;
  };
  return f;
}

}  // namespace

const std::vector<Family>& AllFamilies() {
  static const std::vector<Family>* families = new std::vector<Family>{
      MakeYelp(),   MakeImdb(),   MakeMondial(), MakeDblp(),
      MakeMlb(),    MakeAirbnb(), MakePatent(),  MakeBike(),
      MakeTencent(), MakeRetina(), MakeMovie(),   MakeSoccer()};
  return *families;
}

const Family& GetFamily(const std::string& name) {
  for (const Family& f : AllFamilies()) {
    if (f.name == name) return f;
  }
  DYNAMITE_CHECK(false, "unknown family");
  return AllFamilies()[0];
}

}  // namespace workload
}  // namespace dynamite
