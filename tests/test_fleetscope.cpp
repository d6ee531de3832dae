// fleetscope's artifact readers against hostile input: every field the
// observatory's writers always emit is required, and a field that is
// missing or does not fit its member fails the read with its place and name
// instead of turning into 0 or "".

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scope.hpp"

namespace iotml::fleetscope {
namespace {

// Replaces the first `from` in `text` with `to`.
std::string with(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

// Each artifact exactly as its writer lays it out.
const std::string kJourneys =
    "{\"meta\": {\"records\": 1, \"dropped\": 0}}\n"
    "{\"trace\": 7, \"kind\": \"send\", \"stream\": \"rows\", \"hop\": 0, \"src\": 3, "
    "\"dst\": 20, \"t0\": 1.5, \"t1\": 1.52, \"rows\": 9, \"bytes\": 410, \"attempts\": 1, "
    "\"outcome\": \"delivered\", \"parents\": [5, 6]}\n";

const std::string kSeries =
    "{\n  \"capacity\": 512,\n  \"series\": [\n    {\"metric\": \"edge.buffer_rows\", "
    "\"entity\": \"edge-0\", \"tier\": \"edge\", \"total\": 2, \"samples\": [[1, 4], [2, 0]]}"
    "\n  ]\n}\n";

const std::string kFlight =
    "{\n  \"ring_capacity\": 32,\n  \"entities\": [\n    {\"entity\": 20, \"total\": 1, "
    "\"events\": [{\"t\": 2.5, \"kind\": \"crash\", \"a\": 1, \"b\": 0}]}\n  ]\n}\n";

template <class File>
std::string read_error(bool (*parse)(std::istream&, File&, std::string&),
                       const std::string& text) {
  std::istringstream in(text);
  File out;
  std::string error;
  EXPECT_FALSE(parse(in, out, error)) << text;
  return error;
}

TEST(FleetscopeReaders, JourneysRequireEveryField) {
  std::istringstream in(kJourneys);
  JourneyFile file;
  std::string error;
  ASSERT_TRUE(parse_journeys(in, file, error)) << error;
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].src, 3u);
  EXPECT_EQ(file.records[0].outcome, "delivered");
  EXPECT_EQ(file.records[0].parents, (std::vector<std::uint64_t>{5, 6}));

  const std::string where = "journeys.jsonl line 2: bad or missing field ";
  EXPECT_EQ(read_error(parse_journeys, with(kJourneys, "\"hop\": 0", "\"hop\": -1")),
            where + "hop");
  EXPECT_EQ(read_error(parse_journeys, with(kJourneys, "\"src\": 3", "\"src\": 1e30")),
            where + "src");
  EXPECT_EQ(read_error(parse_journeys, with(kJourneys, ", \"outcome\": \"delivered\"", "")),
            where + "outcome");
  EXPECT_EQ(read_error(parse_journeys, with(kJourneys, "[5, 6]", "[5, -6]")),
            where + "parents[1]");
  EXPECT_EQ(read_error(parse_journeys, with(kJourneys, "\"dropped\": 0", "\"dropped\": \"0\"")),
            "journeys.jsonl line 1: bad or missing field meta.dropped");
}

TEST(FleetscopeReaders, TimeseriesRequireEveryField) {
  std::istringstream in(kSeries);
  SeriesFile file;
  std::string error;
  ASSERT_TRUE(parse_timeseries(in, file, error)) << error;
  ASSERT_EQ(file.series.size(), 1u);
  EXPECT_EQ(file.series[0].tier, "edge");
  EXPECT_EQ(file.series[0].samples.size(), 2u);

  const std::string where = "timeseries.json: bad or missing field ";
  EXPECT_EQ(read_error(parse_timeseries, with(kSeries, "\"total\": 2", "\"total\": -1")),
            where + "series[0].total");
  EXPECT_EQ(read_error(parse_timeseries, with(kSeries, "512", "1e30")), where + "capacity");
  EXPECT_EQ(read_error(parse_timeseries, with(kSeries, " \"tier\": \"edge\",", "")),
            where + "series[0].tier");
  EXPECT_EQ(read_error(parse_timeseries, with(kSeries, "[2, 0]", "[2, null]")),
            where + "series[0].samples[1]");
}

TEST(FleetscopeReaders, FlightRecordsRequireEveryField) {
  std::istringstream in(kFlight);
  FlightFile file;
  std::string error;
  ASSERT_TRUE(parse_flightrec(in, file, error)) << error;
  ASSERT_EQ(file.entities.size(), 1u);
  EXPECT_EQ(file.entities[0].lines, (std::vector<std::string>{"t=2.5 crash a=1 b=0"}));

  const std::string where = "flightrec.json: bad or missing field ";
  EXPECT_EQ(read_error(parse_flightrec, with(kFlight, "\"entity\": 20", "\"entity\": -1")),
            where + "entities[0].entity");
  EXPECT_EQ(read_error(parse_flightrec, with(kFlight, "\"a\": 1", "\"a\": 1e30")),
            where + "entities[0].events[0].a");
  EXPECT_EQ(read_error(parse_flightrec, with(kFlight, " \"kind\": \"crash\",", "")),
            where + "entities[0].events[0].kind");
}

}  // namespace
}  // namespace iotml::fleetscope
